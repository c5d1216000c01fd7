package tlc

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// committedArtifact is the part of a committed tlcbench artifact the replay
// test checks: the run shape and every run's cycles and metric registry.
type committedArtifact struct {
	TimedInstructions uint64 `json:"timed_instructions"`
	Seed              int64  `json:"seed"`
	SampleLength      uint64 `json:"sample_length"`
	PhaseWindows      int    `json:"phase_windows"`
	PhaseClusters     int    `json:"phase_clusters"`
	Runs              []struct {
		Design    string          `json:"design"`
		Benchmark string          `json:"benchmark"`
		Cycles    uint64          `json:"cycles"`
		Metrics   MetricsSnapshot `json:"metrics"`
	} `json:"runs"`
}

// quickOptions are the options `tlcbench -quick` runs with.
func quickOptions() Options {
	return Options{RunInstructions: 200_000, WarmInstructions: 2_000_000, Seed: 1}
}

// TestReplaysCommittedArtifacts is the oracle for the run pipeline: the
// committed BENCH_lanes.json (full timing, lane-warmed checkpoints, from
// `tlcbench -quick -full`) and BENCH_phase.json (`-phase`) must reproduce
// exactly — every run's cycles and every metric of its registry snapshot,
// provenance markers included. Under -short it replays one benchmark per
// design.
func TestReplaysCommittedArtifacts(t *testing.T) {
	t.Run("lanes", func(t *testing.T) {
		art := loadArtifact(t, "BENCH_lanes.json")
		opt := quickOptions()
		if art.TimedInstructions != opt.RunInstructions || art.Seed != opt.Seed {
			t.Fatalf("artifact shape %d instructions / seed %d, want tlcbench -quick", art.TimedInstructions, art.Seed)
		}
		replay(t, art, opt, func(bench string, o Options) Options {
			// The artifact's runs restored lane-warmed checkpoints; warm
			// every design of the benchmark in one lane pass likewise.
			o.Checkpoints = NewCheckpointStore(len(Designs()), "")
			if _, err := WarmLanes(Designs(), bench, o); err != nil {
				t.Fatal(err)
			}
			return o
		})
	})
	t.Run("phase", func(t *testing.T) {
		art := loadArtifact(t, "BENCH_phase.json")
		opt := quickOptions()
		opt.SampleLength, opt.PhaseWindows, opt.PhaseClusters = art.SampleLength, art.PhaseWindows, art.PhaseClusters
		if art.TimedInstructions != opt.RunInstructions || art.Seed != opt.Seed || opt.PhaseWindows == 0 {
			t.Fatalf("artifact shape %d instructions / seed %d / %d windows, want tlcbench -quick -phase",
				art.TimedInstructions, art.Seed, art.PhaseWindows)
		}
		replay(t, art, opt, func(_ string, o Options) Options {
			// One profile store per benchmark, as per invocation: the first
			// run computes the profile, later designs reuse it.
			o.PhaseProfiles = NewPhaseProfileStore(0, "")
			return o
		})
	})
}

func loadArtifact(t *testing.T, path string) committedArtifact {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art committedArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(art.Runs) != len(Designs())*len(Benchmarks()) {
		t.Fatalf("%s holds %d runs, want the full %d-cell grid", path, len(art.Runs), len(Designs())*len(Benchmarks()))
	}
	return art
}

// replay reruns the artifact's cells benchmark by benchmark, with options
// from perBench, and compares each against its committed record. Under
// -short only the diagonal cell (design i, benchmark i) of each design
// replays. A run whose record carries sample.phase.profile_cached reused a
// profile an earlier run of its benchmark computed, so the runs without
// the marker go first (and replay too, even under -short).
func replay(t *testing.T, art committedArtifact, opt Options, perBench func(bench string, o Options) Options) {
	records := map[string]int{}
	for i, r := range art.Runs {
		records[r.Design+"/"+r.Benchmark] = i
	}
	for bi, bench := range Benchmarks() {
		record := func(d Design) MetricsSnapshot { return art.Runs[records[d.String()+"/"+bench]].Metrics }
		cached := func(d Design) bool {
			_, ok := record(d).Value("sample.phase.profile_cached")
			return ok
		}
		var order []Design
		for di, d := range Designs() {
			if !testing.Short() || di == bi {
				order = append(order, d)
			}
		}
		if len(order) == 0 {
			continue
		}
		if slices.ContainsFunc(order, cached) {
			for _, d := range Designs() {
				if !cached(d) && !slices.Contains(order, d) {
					order = append(order, d)
				}
			}
		}
		sort.SliceStable(order, func(i, j int) bool { return !cached(order[i]) && cached(order[j]) })
		o := perBench(bench, opt)
		for _, d := range order {
			rec := art.Runs[records[d.String()+"/"+bench]]
			var snap MetricsSnapshot
			o.OnMetrics = func(ev MetricsEvent) { snap = ev.Snapshot }
			res, err := Run(d, bench, o)
			if err != nil {
				t.Fatalf("%v/%s: %v", d, bench, err)
			}
			if res.Cycles != rec.Cycles {
				t.Errorf("%v/%s: %d cycles, committed %d", d, bench, res.Cycles, rec.Cycles)
			}
			// Compare through the artifact's JSON encoding, as tlcbench
			// wrote it.
			enc, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var got MetricsSnapshot
			if err := json.Unmarshal(enc, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, rec.Metrics) {
				t.Errorf("%v/%s: registry differs from the committed run:\n got %+v\nwant %+v", d, bench, got, rec.Metrics)
			}
		}
	}
}
