package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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
