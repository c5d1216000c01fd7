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
// lane phase: a full-detail grid with fewer benchmark groups than workers
// keeps the warm-only pass and runs its cells one by one across the
// workers, and with a group per worker it times the groups as lanes and
// leaves every cell cached. Both give the scalar results.
func TestSuiteTimesLanesOnlyWithAGroupPerWorker(t *testing.T) {
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}
	benches := []string{"perl"}
	cells := uint64(len(designs) * len(benches))
	newSuite := func() *Suite {
		opt := tlc.Options{WarmInstructions: 20_000, RunInstructions: 5_000, Seed: 1}
		opt.Checkpoints = tlc.NewCheckpointStore(0, "")
		return NewSuite(opt)
	}
	for _, tc := range []struct {
		par  int
		hits uint64
	}{{2, 0}, {1, cells}} {
		s := newSuite()
		if err := s.RunAll(designs, benches, tc.par); err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		if m.Simulated != cells || m.CacheHits != tc.hits || m.LanesWarmed != cells {
			t.Errorf("par %d: simulated %d, cache hits %d, lanes warmed %d; want %d, %d, %d",
				tc.par, m.Simulated, m.CacheHits, m.LanesWarmed, cells, tc.hits, cells)
		}
		scalar := NewSuite(tlc.Options{WarmInstructions: 20_000, RunInstructions: 5_000, Seed: 1})
		for _, d := range designs {
			if got, want := s.Run(d, benches[0]), scalar.Run(d, benches[0]); got != want {
				t.Errorf("par %d, %v: %+v, scalar %+v", tc.par, d, got, want)
			}
		}
	}
}
