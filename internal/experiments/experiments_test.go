package experiments

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tlc"
)

// quickSuite keeps simulated experiments fast in tests.
func quickSuite() *Suite {
	return NewSuite(tlc.Options{WarmInstructions: 1_000_000, RunInstructions: 50_000, Seed: 1})
}

func TestStaticTablesRender(t *testing.T) {
	for name, fn := range map[string]func() string{
		"table1": func() string { return Table1().String() },
		"table2": func() string { return Table2().String() },
		"table7": func() string { return Table7().String() },
		"table8": func() string { return Table8().String() },
		"fig3":   func() string { return Figure3().String() },
	} {
		out := fn()
		if len(out) < 100 || !strings.Contains(out, "-") {
			t.Errorf("%s rendered implausibly: %q", name, out)
		}
	}
}

func TestTable1ContainsAllGeometries(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"0.9 cm", "1.1 cm", "1.3 cm", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2ContainsAllDesigns(t *testing.T) {
	out := Table2().String()
	for _, d := range tlc.Designs() {
		if !strings.Contains(out, d.String()) {
			t.Errorf("Table 2 missing %v", d)
		}
	}
	if !strings.Contains(out, "2048") || !strings.Contains(out, "10 - 16 cycles") {
		t.Error("Table 2 missing base TLC parameters")
	}
}

// tinySuite is the smallest useful run, for concurrency-shape tests where
// simulation fidelity does not matter.
func tinySuite() *Suite {
	return NewSuite(tlc.Options{WarmInstructions: 10_000, RunInstructions: 5_000, Seed: 1})
}

// TestSingleflightDeduplicates is the regression test for the
// check-then-act race the pre-singleflight cache had: 8 concurrent callers
// of the same key must share one underlying simulation.
func TestSingleflightDeduplicates(t *testing.T) {
	s := tinySuite()
	var runs atomic.Uint64
	s.OnRun = func(RunEvent) { runs.Add(1) }

	const callers = 8
	var wg sync.WaitGroup
	results := make([]tlc.Result, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = s.Run(tlc.DesignTLC, "perl")
		}(i)
	}
	close(start)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d underlying runs for %d concurrent callers of one key, want 1", got, callers)
	}
	m := s.Metrics()
	if m.Simulated != 1 {
		t.Fatalf("Metrics.Simulated = %d, want 1", m.Simulated)
	}
	if m.CacheHits != callers-1 {
		t.Fatalf("Metrics.CacheHits = %d, want %d", m.CacheHits, callers-1)
	}
	if m.SimWall <= 0 {
		t.Fatal("Metrics.SimWall not recorded")
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	s := tinySuite()
	err := s.RunAll([]tlc.Design{tlc.DesignTLC}, []string{"no-such-benchmark"}, 4)
	if err == nil {
		t.Fatal("RunAll swallowed the unknown-benchmark error")
	}
	if !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Fatalf("error %q does not name the benchmark", err)
	}
	// The error is cached like any result: a retry must not panic and must
	// report the same failure.
	if _, err2 := s.RunErr(tlc.DesignTLC, "no-such-benchmark"); err2 == nil {
		t.Fatal("cached error lost on retry")
	}
}

// TestRunAllMatchesSerial is the determinism guarantee behind the -par
// flags: a parallel grid must produce exactly the results of serial runs.
func TestRunAllMatchesSerial(t *testing.T) {
	designs := []tlc.Design{tlc.DesignTLC, tlc.DesignSNUCA2}
	benches := []string{"perl", "oltp"}

	serial := tinySuite()
	want := make(map[string]tlc.Result)
	for _, d := range designs {
		for _, b := range benches {
			want[d.String()+"/"+b] = serial.Run(d, b)
		}
	}

	parallel := tinySuite()
	if err := parallel.RunAll(designs, benches, 4); err != nil {
		t.Fatal(err)
	}
	for _, d := range designs {
		for _, b := range benches {
			if got := parallel.Run(d, b); got != want[d.String()+"/"+b] {
				t.Fatalf("%v/%s diverged between serial and parallel runs", d, b)
			}
		}
	}
	if m := parallel.Metrics(); m.Simulated != uint64(len(designs)*len(benches)) {
		t.Fatalf("parallel grid simulated %d runs, want %d", m.Simulated, len(designs)*len(benches))
	}
}

// TestConcurrentMixedCallers drives Run, RunErr, RunAll, and Metrics from
// many goroutines at once; its value is being -race-clean.
func TestConcurrentMixedCallers(t *testing.T) {
	s := tinySuite()
	s.OnRun = func(RunEvent) {} // exercise the hook path concurrently
	designs := []tlc.Design{tlc.DesignTLC, tlc.DesignSNUCA2}
	benches := []string{"perl", "oltp"}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if err := s.RunAll(designs, benches, 2); err != nil {
					t.Error(err)
				}
			} else {
				for _, b := range benches {
					s.Run(designs[i%len(designs)], b)
				}
			}
			s.Metrics()
		}(i)
	}
	wg.Wait()
	if m := s.Metrics(); m.Simulated != 4 {
		t.Fatalf("%d underlying runs, want 4 (one per grid key)", m.Simulated)
	}
}

func TestRunCaching(t *testing.T) {
	s := quickSuite()
	a := s.Run(tlc.DesignTLC, "perl")
	b := s.Run(tlc.DesignTLC, "perl")
	if a != b {
		t.Fatal("cache returned a different result")
	}
}

func TestPrefetchFillsCache(t *testing.T) {
	s := quickSuite()
	benches := []string{"perl", "oltp"}
	if err := s.RunAll([]tlc.Design{tlc.DesignTLC}, benches, 2); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	n := len(s.cache)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d cached runs, want 2", n)
	}
}

func TestSimulatedExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated experiments are slow")
	}
	s := quickSuite()
	t6 := s.Table6().String()
	for _, b := range tlc.Benchmarks() {
		if !strings.Contains(t6, b) {
			t.Errorf("Table 6 missing %s", b)
		}
	}
	f5 := s.Figure5()
	if len(f5.Series) != 2 || len(f5.Series[0].Values) != 12 {
		t.Fatal("Figure 5 series malformed")
	}
	for _, v := range f5.Series[1].Values { // TLC normalized exec
		if v <= 0.3 || v > 1.5 {
			t.Errorf("normalized execution time %v implausible", v)
		}
	}
	f7 := s.Figure7()
	if len(f7.Series) != 4 {
		t.Fatal("Figure 7 should cover the four TLC designs")
	}
	// Figure 7's headline: base TLC utilization stays low everywhere.
	for _, v := range f7.Series[0].Values {
		if v > 15 {
			t.Errorf("base TLC utilization %v%% too high", v)
		}
	}
	f8 := s.Figure8()
	if len(f8.Series) != 4 {
		t.Fatal("Figure 8 should cover the four TLC designs")
	}
	t9 := s.Table9().String()
	if !strings.Contains(t9, "mW") {
		t.Error("Table 9 missing power columns")
	}
}
