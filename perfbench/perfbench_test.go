package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"tlc"
	"tlc/internal/api"
)

func committedRefs(t *testing.T, workload string) *refFile {
	t.Helper()
	rf, err := loadRefs("refs", workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

func cloneRefs(rf *refFile) *refFile {
	out := *rf
	out.Cells = make(map[string]cellRef, len(rf.Cells))
	for k, v := range rf.Cells {
		out.Cells[k] = v
	}
	return &out
}

// TestChangedReferenceFailsExactlyThatCell changes one grid reference entry
// in each compared field and checks that exactly that cell fails.
func TestChangedReferenceFailsExactlyThatCell(t *testing.T) {
	for _, workload := range []string{"paper-grid", "cmp-grid"} {
		rf := committedRefs(t, workload)
		if len(rf.Cells) != gridCells {
			t.Fatalf("%s: %d reference cells, want %d", workload, len(rf.Cells), gridCells)
		}
		got := cloneRefs(rf).Cells
		if f := rf.verify(got); len(f) != 0 {
			t.Fatalf("%s: unchanged references report failures: %v", workload, f)
		}
		const op = "DNUCA/gcc"
		for _, change := range []func(*cellRef){
			func(c *cellRef) { c.Cycles++ },
			func(c *cellRef) { c.IPC *= 1.0000001 },
			func(c *cellRef) { c.Digest = "0000000000000000" },
		} {
			bad := cloneRefs(rf)
			c := bad.Cells[op]
			change(&c)
			bad.Cells[op] = c
			f := bad.verify(got)
			if len(f) != 1 || !strings.HasPrefix(f[0], op+":") {
				t.Errorf("%s: one changed entry gave failures %v, want exactly %s", workload, f, op)
			}
		}
	}
}

// TestPhaseCellOutsideToleranceFails moves one paper-grid reference so the
// matching phase-grid estimate lands outside ±3%.
func TestPhaseCellOutsideToleranceFails(t *testing.T) {
	rf := committedRefs(t, "paper-grid")
	est := refCycles(rf)
	if a := accuracy(est, rf); len(a.failures) != 0 || a.maxPct != 0 || a.inversions != 0 {
		t.Fatalf("exact estimates: %+v", a)
	}
	const op = "TLC/mcf"
	bad := cloneRefs(rf)
	c := bad.Cells[op]
	c.Cycles = c.Cycles * 104 / 100
	bad.Cells[op] = c
	a := accuracy(est, bad)
	if len(a.failures) != 1 || !strings.HasPrefix(a.failures[0], op+":") {
		t.Errorf("failures %v, want exactly %s", a.failures, op)
	}
}

// TestChangedReferenceFailsExactlyThatRequest checks served responses: one
// changed serve-mix reference fails that key's responses only.
func TestChangedReferenceFailsExactlyThatRequest(t *testing.T) {
	rf := committedRefs(t, "serve-mix")
	if len(rf.Cells) != gridCells*serveRunSeeds {
		t.Fatalf("%d serve-mix references, want %d", len(rf.Cells), gridCells*serveRunSeeds)
	}
	snap := tlc.MetricsSnapshot{{Name: "l2.loads", Kind: "counter", Value: 7, Count: 7}}
	keys := serveKeys(1)[:3]
	refs := &refFile{Cells: map[string]cellRef{}}
	for _, k := range keys {
		refs.Cells[k.op] = cellRef{Cycles: 100, IPC: 1.5, Digest: digest(snap)}
	}
	c := refs.Cells[keys[1].op]
	c.Cycles = 101
	refs.Cells[keys[1].op] = c
	for i, k := range keys {
		var s served
		s.check(refs, k.op, api.RunRecord{Cycles: 100, IPC: 1.5, Metrics: snap}, nil)
		if (s.failed != "") != (i == 1) {
			t.Errorf("%s: failure %q", k.op, s.failed)
		}
	}
}

// TestTailsHaveTenSamplesBeyond pins the percentile rule: every reported
// tail has at least ten samples beyond it — p99 over the serve-mix requests
// and p85 over a 72-cell grid.
func TestTailsHaveTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{serveRequests, 99}, {gridCells, 85}} {
		p := tailPercentile(tc.n)
		if p != tc.want {
			t.Errorf("n=%d: tail p%g, want p%g", tc.n, p, tc.want)
		}
		vs := make([]float64, tc.n)
		for i := range vs {
			vs[i] = float64(tc.n - i)
		}
		cut := percentile(vs, p)
		above := 0
		for _, v := range vs {
			if v > cut {
				above++
			}
		}
		if above < 10 || above != beyond(tc.n, p) {
			t.Errorf("n=%d p%g: %d samples beyond (beyond() says %d), want >= 10", tc.n, p, above, beyond(tc.n, p))
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tlc/internal/cache.WarmSweep":                      "cache",
		"tlc/internal/cpu.(*Core).run":                      "cpu",
		"tlc/internal/sim.(*heap[go.shape.int]).push":       "sim",
		"tlc/internal/experiments.(*Suite).warmLanes.func1": "experiments",
		"tlc/internal/tlcache.(*Cache).WarmBulk":            "tlcache",
		"tlc/internal/machine.(*Shared).Access":             "machine",
		"tlc/internal/server.(*Server).submitKeyed":         "server",
		"tlc/internal/cache/sub.F":                          "cache",
		"tlc/internal/cachefoo.F":                           "other",
		"tlc/internal/dram.(*Controller).Access":            "other",
		"tlc.RunSpec":                                       "tlc",
		"tlc.(*keyHasher).u64":                              "tlc",
		"encoding/json.(*encodeState).marshal":              "encoding_json",
		"net/http.(*conn).serve":                            "net_http",
		"net/http/httptest.F":                               "other",
		"runtime.mallocgc":                                  "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":        "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"type:.eq.tlc/internal/snapshot.Key":                "other",
		"syscall.Syscall6":                                  "other",
		"main.(*gridUnit).execute.func1":                    "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestModuleSelfTimesOnSmallProfile profiles a short simulation, reads the
// profile with go tool pprof, and checks the per-module split: the core
// and cache layers show up and the modules add up to the profile total.
func TestModuleSelfTimesOnSmallProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a simulation")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	opt := tlc.DefaultOptions()
	opt.WarmInstructions = 2_000_000
	opt.RunInstructions = 300_000
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := tlc.Run(tlc.DesignTLC, "gcc", opt); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	self, err := moduleSelfTimes(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"cpu", "cache", "workload"} {
		if self[m+".self_s"] <= 0 {
			t.Errorf("%s.self_s = %v, want > 0 (profile: %v)", m, self[m+".self_s"], self)
		}
	}
	parts := 0.0
	for _, m := range selfTimeModules {
		parts += self[m+".self_s"]
	}
	if total := self["total.self_s"]; total <= 0 || math.Abs(parts-total) > 1e-6 {
		t.Errorf("modules sum to %v s, profile total %v s", parts, total)
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: tlcperf
Type: cpu
Duration: 1s, Total samples = 250ms (25.00%)
Showing nodes accounting for 250ms, 100% of 250ms total
      flat  flat%   sum%        cum   cum%
     120ms 48.00% 48.00%      130ms 52.00%  tlc/internal/cache.WarmSweep
      80ms 32.00% 80.00%       80ms 32.00%  tlc/internal/cpu.(*Core).run
      30ms 12.00% 92.00%       30ms 12.00%  runtime.mallocgc
      20ms  8.00%   100%       20ms  8.00%  type:.eq.[2]interface {}
         0     0%   100%      250ms   100%  main.main
`)
	self, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"cache.self_s": 0.12, "cpu.self_s": 0.08, "runtime.self_s": 0.03,
		"other.self_s": 0.02, "total.self_s": 0.25, "server.self_s": 0,
	} {
		if math.Abs(self[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, self[k], want)
		}
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("output without a table parsed")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, tc := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEndMetrics}, {"per_layer", b.PerLayer, perLayerMetrics}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", tc.kind, len(tc.json), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			j := tc.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", tc.kind, i, j, d)
			}
		}
	}
}
