package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlc"
)

// TestDiffMetricsMissingArtifact covers the common trajectory mistake:
// pointing -diff-against at an artifact that was never generated. The error
// must be a single clear line naming the path (main exits nonzero on it),
// not a wrapped *PathError dump.
func TestDiffMetricsMissingArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.json")
	_, err := readArtifact(path)
	if err == nil {
		t.Fatalf("readArtifact(%q) = nil, want error", path)
	}
	msg := err.Error()
	if !strings.Contains(msg, path) {
		t.Errorf("error %q does not name the missing path %q", msg, path)
	}
	if !strings.Contains(msg, "no previous artifact") {
		t.Errorf("error %q does not say the artifact is missing", msg)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error %q spans multiple lines", msg)
	}
}

// TestDiffMetricsMalformedArtifact: a file that exists but is not a
// tlcbench artifact must fail with a one-line message naming the path.
func TestDiffMetricsMalformedArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readArtifact(path)
	if err == nil {
		t.Fatalf("readArtifact(%q) = nil, want error", path)
	}
	msg := err.Error()
	if !strings.Contains(msg, path) {
		t.Errorf("error %q does not name the path %q", msg, path)
	}
	if strings.Contains(msg, "\n") {
		t.Errorf("error %q spans multiple lines", msg)
	}
}

// TestDiffMetricsValidArtifact: a well-formed previous artifact diffs
// cleanly (nil error), whether metrics moved or not — drift is reported on
// stderr, it is not a failure.
func TestDiffMetricsValidArtifact(t *testing.T) {
	prev := document{
		Runs: []record{{
			Design:    "TLC",
			Benchmark: "gcc",
			Metrics: tlc.MetricsSnapshot{
				{Name: "l1.hits", Value: 100},
			},
		}},
	}
	raw, err := json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prev.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cur := document{
		Runs: []record{{
			Design:    "TLC",
			Benchmark: "gcc",
			Metrics: tlc.MetricsSnapshot{
				{Name: "l1.hits", Value: 150},
			},
		}},
	}
	got, err := readArtifact(path)
	if err != nil {
		t.Fatalf("readArtifact on valid artifact: %v", err)
	}
	changed, compared := diffMetrics(path, *got, cur, 0, io.Discard)
	if changed != 1 || compared != 1 {
		t.Fatalf("diff = %d changed of %d compared, want 1 of 1", changed, compared)
	}
}

// TestDiffMetricsTolerance: -tol turns the exact diff into a symmetric
// relative band — drift within tol*max(|a|,|b|) is unchanged, drift beyond
// it is reported — and tol 0 stays exact down to the last bit.
func TestDiffMetricsTolerance(t *testing.T) {
	cases := []struct {
		old, new, tol float64
		changed       bool
	}{
		{100, 100, 0, false},           // identical, exact
		{100, 100.0001, 0, true},       // any drift, exact
		{100, 102, 0.03, false},        // 2% drift inside a 3% band
		{100, 104, 0.03, true},         // 4% drift outside it
		{102, 100, 0.03, false},        // symmetric: direction does not matter
		{0, 0, 0.03, false},            // both zero
		{0, 1, 0.03, true},             // zero to nonzero is a full-scale change
		{-100, -102, 0.03, false},      // negative values use magnitudes
		{1e-12, 1.02e-12, 0.03, false}, // relative, not absolute
	}
	for _, c := range cases {
		if got := metricChanged(c.old, c.new, c.tol); got != c.changed {
			t.Errorf("metricChanged(%g, %g, tol=%g) = %v, want %v",
				c.old, c.new, c.tol, got, c.changed)
		}
	}
}

// TestParseLaneBench: the -lane-bench-log parser must pull lane_speedup
// per workload out of real `go test -bench` output — tab-separated fields,
// -GOMAXPROCS suffix on sub-benchmark names, unrelated benchmark and
// chatter lines interleaved — and fail loudly on a log with no results.
func TestParseLaneBench(t *testing.T) {
	log := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: tlc",
		"BenchmarkWarmThroughput/gcc-4 \t 5\t 1000 ns/op",
		"BenchmarkLaneSweep/bzip-4         \t       3\t 279292635 ns/op\t       387.6 lane_Minstr_per_s\t         4.064 lane_speedup\t        95.38 scalar_Minstr_per_s",
		"BenchmarkLaneSweep/gcc            \t       3\t 471834522 ns/op\t       229.4 lane_Minstr_per_s\t         2.403 lane_speedup\t        95.45 scalar_Minstr_per_s",
		"PASS",
	}, "\n")
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseLaneBench(path)
	if err != nil {
		t.Fatalf("parseLaneBench: %v", err)
	}
	want := map[string]float64{"bzip": 4.064, "gcc": 2.403}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("speedup[%q] = %g, want %g", k, got[k], v)
		}
	}

	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseLaneBench(empty); err == nil {
		t.Error("parseLaneBench on a log without results = nil, want error")
	}
	if _, err := parseLaneBench(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("parseLaneBench on a missing file = nil, want error")
	}
}

// TestDiffMetricsOrderIndependent is the regression test for the
// reordered-artifact bug: a previous artifact with the same values but
// different run ordering AND unsorted per-run metric arrays (a tlcd-served
// artifact emits records in completion order; nothing guarantees the
// deserialized metrics arrays are sorted) must diff as identical — every
// metric compared, zero changed. The broken version looked metrics up with
// a sorted-order binary search, so an unsorted previous artifact silently
// dropped comparisons or matched wrong values.
func TestDiffMetricsOrderIndependent(t *testing.T) {
	mk := func(bench string, metrics tlc.MetricsSnapshot) record {
		return record{Design: "TLC", Benchmark: bench, Metrics: metrics}
	}
	// Previous artifact: runs reversed, metric arrays deliberately
	// anti-sorted.
	prev := document{Runs: []record{
		mk("mcf", tlc.MetricsSnapshot{
			{Name: "noc.flits", Value: 7},
			{Name: "l2.misses", Value: 4},
			{Name: "cpu.cycles", Value: 9},
		}),
		mk("gcc", tlc.MetricsSnapshot{
			{Name: "noc.flits", Value: 3},
			{Name: "l2.misses", Value: 2},
			{Name: "cpu.cycles", Value: 1},
		}),
	}}
	raw, err := json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prev.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Current artifact: same values, canonical order.
	cur := document{Runs: []record{
		mk("gcc", tlc.MetricsSnapshot{
			{Name: "cpu.cycles", Value: 1},
			{Name: "l2.misses", Value: 2},
			{Name: "noc.flits", Value: 3},
		}),
		mk("mcf", tlc.MetricsSnapshot{
			{Name: "cpu.cycles", Value: 9},
			{Name: "l2.misses", Value: 4},
			{Name: "noc.flits", Value: 7},
		}),
	}}
	got, err := readArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	changed, compared := diffMetrics(path, *got, cur, 0, io.Discard)
	if changed != 0 {
		t.Errorf("reordered identical artifact reported %d changed metrics, want 0", changed)
	}
	if compared != 6 {
		t.Errorf("compared %d metrics, want all 6", compared)
	}

	// And a genuine change in an unsorted previous artifact is still found.
	cur.Runs[0].Metrics[1].Value = 999 // gcc l2.misses
	changed, compared = diffMetrics(path, *got, cur, 0, io.Discard)
	if changed != 1 || compared != 6 {
		t.Errorf("diff = %d changed of %d compared, want 1 of 6", changed, compared)
	}
}

// TestDiffHeadline: -diff-headline compares per-run cycles and ipc under
// the relative tolerance and ignores the embedded registry snapshots —
// the cross-execution-mode accuracy gate, where raw counters cover
// different detailed fractions and cannot be compared.
func TestDiffHeadline(t *testing.T) {
	prev := document{Runs: []record{
		{Design: "TLC", Benchmark: "gcc", Cycles: 100_000, IPC: 2.0,
			Metrics: tlc.MetricsSnapshot{{Name: "l2.misses", Value: 1216}}},
		{Design: "TLC", Benchmark: "mcf", Cycles: 500_000, IPC: 0.4},
	}}
	cur := document{Runs: []record{
		// Within 3% of prev, registry metric wildly different: headline
		// mode must pass where a metrics diff would scream.
		{Design: "TLC", Benchmark: "gcc", Cycles: 102_000, IPC: 1.96,
			Metrics: tlc.MetricsSnapshot{{Name: "l2.misses", Value: 446}}},
		// 10% off: both fields flagged.
		{Design: "TLC", Benchmark: "mcf", Cycles: 550_000, IPC: 0.36},
	}}

	changed, compared := diffHeadline("prev.json", prev, cur, 0.03, io.Discard)
	if compared != 4 {
		t.Errorf("compared %d headline values, want 4 (2 runs x cycles+ipc)", compared)
	}
	if changed != 2 {
		t.Errorf("%d headline values changed at 3%% tolerance, want 2 (mcf only)", changed)
	}
	if c, _ := diffHeadline("prev.json", prev, cur, 0.15, io.Discard); c != 0 {
		t.Errorf("%d headline values changed at 15%% tolerance, want 0", c)
	}
	// Exact mode still bites on the small drift.
	if c, _ := diffHeadline("prev.json", prev, cur, 0, io.Discard); c != 4 {
		t.Errorf("%d headline values changed at tol 0, want all 4", c)
	}
}
