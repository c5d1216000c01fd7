package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlc"
)

// TestSuiteAggregatesRunMetrics is the satellite check on the metrics spine
// at the suite layer: every executed run contributes its full registry
// snapshot exactly once, and cached duplicate runs neither re-fire the hook
// nor replace the retained snapshot.
func TestSuiteAggregatesRunMetrics(t *testing.T) {
	var fired atomic.Uint64
	opt := tlc.Options{WarmInstructions: 10_000, RunInstructions: 5_000, Seed: 1}
	opt.OnMetrics = func(tlc.MetricsEvent) { fired.Add(1) } // user hook must chain
	s := NewSuite(opt)

	designs := []tlc.Design{tlc.DesignTLC, tlc.DesignSNUCA2, tlc.DesignDNUCA}
	benches := []string{"perl", "oltp"}
	if err := s.RunAll(designs, benches, 8); err != nil {
		t.Fatal(err)
	}

	if got, want := fired.Load(), uint64(len(designs)*len(benches)); got != want {
		t.Fatalf("user OnMetrics fired %d times, want %d", got, want)
	}

	// Every grid cell has a retained snapshot.
	want := make(map[runKey]tlc.MetricsSnapshot)
	for _, d := range designs {
		for _, b := range benches {
			snap, ok := s.RunMetrics(d, b)
			if !ok {
				t.Fatalf("no metrics snapshot for %v/%s", d, b)
			}
			if len(snap) == 0 {
				t.Fatalf("empty metrics snapshot for %v/%s", d, b)
			}
			if v, ok := snap.Value("l2.loads"); !ok || v <= 0 {
				t.Fatalf("%v/%s snapshot missing l2.loads (got %v, %v)", d, b, v, ok)
			}
			want[runKey{d, b}] = snap
		}
	}
	// A repeat of the whole grid hits the cache: no new snapshots and no
	// extra hook firings.
	for _, d := range designs {
		for _, b := range benches {
			s.Run(d, b)
		}
	}
	if fired.Load() != uint64(len(designs)*len(benches)) {
		t.Fatal("cached runs re-fired OnMetrics")
	}
	for k, w := range want {
		if again, _ := s.RunMetrics(k.d, k.bench); !reflect.DeepEqual(again, w) {
			t.Errorf("cached re-run replaced the %v/%s snapshot", k.d, k.bench)
		}
	}

	// A snapshot never observes a design-foreign metric: SNUCA2 runs must
	// not report DNUCA's close-hit counter.
	snap, _ := s.RunMetrics(tlc.DesignSNUCA2, "perl")
	if _, ok := snap.Value("l2.close_hits"); ok {
		t.Error("SNUCA2 snapshot reports DNUCA-only l2.close_hits")
	}
	snap, _ = s.RunMetrics(tlc.DesignDNUCA, "perl")
	if _, ok := snap.Value("l2.close_hits"); !ok {
		t.Error("DNUCA snapshot missing l2.close_hits")
	}
}

// TestSuiteMetricsConcurrentReaders races RunAll's worker goroutines against
// continuous RunMetrics/Metrics readers; its value is
// being -race-clean while the aggregation mutates under the suite mutex.
func TestSuiteMetricsConcurrentReaders(t *testing.T) {
	s := NewSuite(tlc.Options{WarmInstructions: 10_000, RunInstructions: 5_000, Seed: 1})
	s.OnRun = func(ev RunEvent) { s.RunMetrics(ev.Design, ev.Benchmark) } // reentrant-adjacent read path

	designs := []tlc.Design{tlc.DesignTLC, tlc.DesignSNUCA2}
	benches := []string{"perl", "oltp"}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Metrics()
				for _, d := range designs {
					for _, b := range benches {
						if snap, ok := s.RunMetrics(d, b); ok {
							snap.Value("l2.loads")
						}
					}
				}
			}
		}()
	}

	if err := s.RunAll(designs, benches, 8); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()

	snap, _ := s.RunMetrics(tlc.DesignTLC, "perl")
	if v, _ := snap.Value("l2.loads"); v == 0 {
		t.Fatal("l2.loads is zero after a full grid")
	}
}

// TestSuiteLaneAccounting pins how a full-detail grid's timed lanes are
// charged: every cell counts once in Simulated and fires OnRun once, the
// cells' OnRun walls sum to SimWall (the timed halves), and the warm
// halves land in LaneWall alone. The runs RunAll then requests are cache
// hits, and the results equal a lane-free suite's.
func TestSuiteLaneAccounting(t *testing.T) {
	opt := tlc.Options{WarmInstructions: 20_000, RunInstructions: 5_000, Seed: 1}
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}
	benches := []string{"perl", "oltp"}
	cells := uint64(len(designs) * len(benches))

	opt.Checkpoints = tlc.NewCheckpointStore(0, "")
	s := NewSuite(opt)
	var mu sync.Mutex
	var fired uint64
	var walls time.Duration
	s.OnRun = func(ev RunEvent) {
		mu.Lock()
		fired++
		walls += ev.Wall
		mu.Unlock()
	}
	if err := s.RunAll(designs, benches, 2); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Simulated != cells || fired != cells {
		t.Errorf("simulated %d, OnRun fired %d, want %d each", m.Simulated, fired, cells)
	}
	if m.CacheHits != cells {
		t.Errorf("cache hits %d, want %d: the lane phase should leave every cell cached", m.CacheHits, cells)
	}
	if m.SimWall != walls {
		t.Errorf("SimWall %v, want the OnRun walls' sum %v", m.SimWall, walls)
	}
	if m.LaneGroups != uint64(len(benches)) || m.LanesWarmed != cells || m.LaneWall <= 0 || m.SimWall <= 0 {
		t.Errorf("lane phase: %d groups, %d lanes, warm %v, timed %v", m.LaneGroups, m.LanesWarmed, m.LaneWall, m.SimWall)
	}

	scalar := NewSuite(tlc.Options{WarmInstructions: 20_000, RunInstructions: 5_000, Seed: 1})
	scalar.NoLanes = true
	if err := scalar.RunAll(designs, benches, 2); err != nil {
		t.Fatal(err)
	}
	if sm := scalar.Metrics(); sm.Simulated != cells || sm.LaneWall != 0 {
		t.Errorf("lane-free suite: simulated %d, lane wall %v", sm.Simulated, sm.LaneWall)
	}
	for _, d := range designs {
		for _, b := range benches {
			if got, want := s.Run(d, b), scalar.Run(d, b); got != want {
				t.Errorf("%v/%s: timed lane %+v, scalar %+v", d, b, got, want)
			}
		}
	}
}

// TestSuiteTimesLanesOnlyWithAGroupPerWorker pins the width rule of the
// lane phase, full detail and phase-sampled alike: a grid with fewer
// benchmark groups than workers keeps the warm-only pass and runs its cells
// one by one across the workers, and with a group per worker it times the
// groups as lanes and leaves every cell cached. Both give the scalar
// results.
func TestSuiteTimesLanesOnlyWithAGroupPerWorker(t *testing.T) {
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}
	benches := []string{"perl"}
	cells := uint64(len(designs) * len(benches))
	for _, mode := range []struct {
		name string
		set  func(*tlc.Options)
	}{
		{"full", func(*tlc.Options) {}},
		{"phase", func(o *tlc.Options) {
			o.PhaseWindows, o.PhaseClusters = 10, 4
			o.PhaseProfiles = tlc.NewPhaseProfileStore(0, "")
		}},
	} {
		options := func() tlc.Options {
			opt := tlc.Options{WarmInstructions: 20_000, RunInstructions: 5_000, Seed: 1}
			mode.set(&opt)
			return opt
		}
		for _, tc := range []struct {
			par  int
			hits uint64
		}{{2, 0}, {1, cells}} {
			opt := options()
			opt.Checkpoints = tlc.NewCheckpointStore(0, "")
			s := NewSuite(opt)
			if err := s.RunAll(designs, benches, tc.par); err != nil {
				t.Fatal(err)
			}
			m := s.Metrics()
			if m.Simulated != cells || m.CacheHits != tc.hits || m.LanesWarmed != cells {
				t.Errorf("%s, par %d: simulated %d, cache hits %d, lanes warmed %d; want %d, %d, %d",
					mode.name, tc.par, m.Simulated, m.CacheHits, m.LanesWarmed, cells, tc.hits, cells)
			}
			scalar := NewSuite(options())
			for _, d := range designs {
				if !s.Sampled() {
					if got, want := s.Run(d, benches[0]), scalar.Run(d, benches[0]); got != want {
						t.Errorf("%s, par %d, %v: %+v, scalar %+v", mode.name, tc.par, d, got, want)
					}
					continue
				}
				// The provenance markers differ: the scalar suite warms
				// every cell itself, and which per-cell run computes the
				// phase profile depends on timing.
				got, want := s.sampled(d, benches[0]), scalar.sampled(d, benches[0])
				got.Metrics = dropProvenance(got.Metrics)
				want.Metrics = dropProvenance(want.Metrics)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, par %d, %v: %+v, scalar %+v", mode.name, tc.par, d, got, want)
				}
			}
		}
	}
}

// dropProvenance drops the sim.lanes.restored and
// sample.phase.profile_cached estimates.
func dropProvenance(ms []tlc.MetricCI) []tlc.MetricCI {
	var out []tlc.MetricCI
	for _, m := range ms {
		if m.Name != "sim.lanes.restored" && m.Name != "sample.phase.profile_cached" {
			out = append(out, m)
		}
	}
	return out
}

// TestRunAllGivesAStorelessSuiteLanes pins the one lane-store rule of the
// grid CLIs: a suite without a checkpoint store still pays each
// benchmark's warm-up once for all its designs, through an in-memory store
// RunAll makes for the grid, and gets the scalar results.
func TestRunAllGivesAStorelessSuiteLanes(t *testing.T) {
	designs := tlc.Designs()
	opt := tlc.Options{WarmInstructions: 20_000, RunInstructions: 5_000, Seed: 1}
	s := NewSuite(opt)
	if err := s.RunAll(designs, []string{"gcc"}, 2); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.LanesWarmed != uint64(len(designs)) {
		t.Errorf("lanes warmed %d, want %d", m.LanesWarmed, len(designs))
	}
	scalar := NewSuite(opt)
	scalar.NoLanes = true
	for _, d := range designs {
		if got, want := s.Run(d, "gcc"), scalar.Run(d, "gcc"); got != want {
			t.Errorf("%v: %+v, scalar %+v", d, got, want)
		}
	}
	if scalar.options().Checkpoints != nil {
		t.Error("a lane-free suite gained a checkpoint store")
	}
}
