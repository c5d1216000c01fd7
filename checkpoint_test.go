package tlc

import (
	"reflect"
	"sync"
	"testing"
)

// ckptOptions is the scale used by the checkpoint tests: a real warm-up
// (so there is state worth checkpointing) but a short timed interval.
func ckptOptions() Options {
	return Options{WarmInstructions: 1_000_000, RunInstructions: 100_000, Seed: 1}
}

func TestCheckpointedRunsAreBitIdentical(t *testing.T) {
	// The headline determinism guarantee: for every design, a run that
	// restores its warm state from a checkpoint produces a Result identical
	// in every field to one that re-executed the warm-up.
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			opt := ckptOptions()
			plain, err := Run(d, "gcc", opt)
			if err != nil {
				t.Fatal(err)
			}
			store := NewCheckpointStore(0, "")
			opt.Checkpoints = store
			first, err := Run(d, "gcc", opt) // warm-up executes, checkpoint stored
			if err != nil {
				t.Fatal(err)
			}
			second, err := Run(d, "gcc", opt) // warm-up restored
			if err != nil {
				t.Fatal(err)
			}
			if first != plain {
				t.Fatalf("checkpoint-storing run diverged from plain run:\n%+v\n%+v", first, plain)
			}
			if second != plain {
				t.Fatalf("checkpoint-restored run diverged from plain run:\n%+v\n%+v", second, plain)
			}
			st := store.Stats()
			if st.Puts != 1 || st.Hits != 1 {
				t.Fatalf("store stats %+v, want exactly 1 put and 1 hit", st)
			}
		})
	}
}

func TestCheckpointDiskTierSurvivesProcesses(t *testing.T) {
	// A fresh store over the same directory (a new CLI invocation) must
	// restore the checkpoint and reproduce the run bit-identically.
	dir := t.TempDir()
	opt := ckptOptions()
	opt.Checkpoints = NewCheckpointStore(0, dir)
	want, err := Run(DesignTLC, "gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoints = NewCheckpointStore(0, dir)
	got, err := Run(DesignTLC, "gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("disk-restored run diverged:\n%+v\n%+v", got, want)
	}
	if st := opt.Checkpoints.Stats(); st.DiskHits != 1 {
		t.Fatalf("store stats %+v, want 1 disk hit", st)
	}
	if err := opt.Checkpoints.DiskErr(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointKeySeparatesConfigurations(t *testing.T) {
	// Different designs, benchmarks, warm lengths, and warm seeds must not
	// share checkpoints: each combination warms exactly once.
	store := NewCheckpointStore(0, "")
	opt := ckptOptions()
	opt.WarmInstructions = 200_000
	opt.RunInstructions = 20_000
	opt.Checkpoints = store
	run := func(o Options, d Design, bench string) {
		if _, err := Run(d, bench, o); err != nil {
			t.Fatal(err)
		}
	}
	run(opt, DesignTLC, "gcc")
	run(opt, DesignSNUCA2, "gcc") // different design
	run(opt, DesignTLC, "oltp")   // different bench
	o2 := opt
	o2.WarmInstructions = 300_000
	run(o2, DesignTLC, "gcc") // different warm length
	o3 := opt
	o3.WarmSeed = 99
	run(o3, DesignTLC, "gcc") // different warm seed
	st := store.Stats()
	if st.Puts != 5 || st.Hits != 0 {
		t.Fatalf("store stats %+v, want 5 distinct puts and no hits", st)
	}
}

func TestCheckpointStoreConcurrentRuns(t *testing.T) {
	// Many goroutines sharing one store across designs and benchmarks:
	// exercised by `go test -race`, and every result must match the
	// single-threaded plain run.
	store := NewCheckpointStore(0, "")
	opt := Options{WarmInstructions: 300_000, RunInstructions: 30_000, Seed: 1}
	type cell struct {
		d     Design
		bench string
	}
	cells := []cell{
		{DesignTLC, "gcc"}, {DesignSNUCA2, "gcc"}, {DesignDNUCA, "gcc"},
		{DesignTLC, "oltp"}, {DesignTLCOpt500, "gcc"},
	}
	want := make(map[cell]Result)
	for _, c := range cells {
		r, err := Run(c.d, c.bench, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = r
	}
	copt := opt
	copt.Checkpoints = store
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, c := range cells {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := Run(c.d, c.bench, copt)
				if err != nil {
					t.Error(err)
					return
				}
				if r != want[c] {
					t.Errorf("%s/%s: concurrent checkpointed run diverged", c.d, c.bench)
				}
			}()
		}
	}
	wg.Wait()
}

// seedSweep is the loop tlcsweep -seeds builds: one run per design and
// SeedOptions entry, every run sharing one checkpoint store. It returns the
// results per design, in seed order.
func seedSweep(t *testing.T, designs []Design, opt Options, seeds []int64) [][]Result {
	t.Helper()
	out := make([][]Result, len(designs))
	for i, d := range designs {
		for _, o := range SeedOptions(opt, seeds) {
			r, err := Run(d, "gcc", o)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = append(out[i], r)
		}
	}
	return out
}

func TestRunSeedsDeterministicAndSkipsWarm(t *testing.T) {
	opt := Options{WarmInstructions: 500_000, RunInstructions: 50_000}
	designs := []Design{DesignSNUCA2, DesignTLC}
	seeds := []int64{1, 2, 3}

	opt.Checkpoints = NewCheckpointStore(0, "")
	first := seedSweep(t, designs, opt, seeds)
	// Only each design's first seed warms: the seeds share the
	// WarmSeed-keyed checkpoint, so N seeds cost one put and N-1 hits per
	// design (the first run both misses and puts).
	st := opt.Checkpoints.Stats()
	if st.Puts != uint64(len(designs)) {
		t.Fatalf("%d warm-ups executed for %d designs, want one each", st.Puts, len(designs))
	}
	if want := uint64(len(designs) * (len(seeds) - 1)); st.Hits != want {
		t.Fatalf("%d checkpoint hits, want %d", st.Hits, want)
	}

	opt.Checkpoints = NewCheckpointStore(0, "")
	second := seedSweep(t, designs, opt, seeds)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("the seed sweep is not deterministic across invocations")
	}
}

func TestRunSeedsStatsCorrect(t *testing.T) {
	// SummarizeSeeds over the sweep must be the exact mean/min/max of the
	// per-seed runs, and a run restored from the shared checkpoint must
	// equal the same configuration warmed from scratch.
	opt := Options{WarmInstructions: 500_000, RunInstructions: 50_000}
	seeds := []int64{1, 2, 3, 4}
	opt.Checkpoints = NewCheckpointStore(0, "")
	runs := seedSweep(t, []Design{DesignTLC}, opt, seeds)[0]

	var cs, ls, ms []float64
	for i, r := range runs {
		cold := opt
		cold.Checkpoints = nil
		cold.WarmSeed, cold.Seed = seeds[0], seeds[i]
		want, err := Run(DesignTLC, "gcc", cold)
		if err != nil {
			t.Fatal(err)
		}
		if r != want {
			t.Fatalf("seed %d: checkpointed run differs from its cold run", seeds[i])
		}
		cs = append(cs, float64(r.Cycles))
		ls = append(ls, r.MeanLookup)
		ms = append(ms, r.MissesPer1K)
	}
	cycles, lookup, misses := SummarizeSeeds(cs), SummarizeSeeds(ls), SummarizeSeeds(ms)

	var sum, min, max float64
	min, max = cs[0], cs[0]
	for _, v := range cs {
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if cycles.Min != min || cycles.Max != max {
		t.Fatalf("cycles min/max %v/%v, want %v/%v", cycles.Min, cycles.Max, min, max)
	}
	if mean := sum / float64(len(cs)); cycles.Mean != mean {
		t.Fatalf("cycles mean %v, want %v", cycles.Mean, mean)
	}
	if lookup.Min > lookup.Mean || lookup.Mean > lookup.Max {
		t.Fatalf("lookup stats disordered: %+v", lookup)
	}
	if misses.Min > misses.Mean || misses.Mean > misses.Max {
		t.Fatalf("miss stats disordered: %+v", misses)
	}
	if cycles.Spread() < 0 || cycles.Spread() > 0.5 {
		t.Fatalf("cycle spread %v implausible", cycles.Spread())
	}
}
