package tlc

import (
	"sort"
	"testing"
)

// TestOnMetricsSnapshotMatchesResult checks the registry snapshot delivered
// to OnMetrics agrees with the Result assembled from the same registry: the
// counters behind the flat fields must read identically through both paths.
func TestOnMetricsSnapshotMatchesResult(t *testing.T) {
	var got []MetricsEvent
	opt := DefaultOptions()
	opt.RunInstructions = 200_000
	opt.OnMetrics = func(ev MetricsEvent) { got = append(got, ev) }
	res, err := Run(DesignDNUCA, "gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("OnMetrics fired %d times, want 1", len(got))
	}
	ev := got[0]
	if ev.Design != DesignDNUCA || ev.Benchmark != "gcc" {
		t.Errorf("event labeled %v/%q, want DNUCA/gcc", ev.Design, ev.Benchmark)
	}
	if ev.Cycles != res.Cycles {
		t.Errorf("event Cycles = %d, Result Cycles = %d", ev.Cycles, res.Cycles)
	}
	if v, _ := ev.Snapshot.Value("l2.loads"); v != float64(res.L2Loads) {
		t.Errorf("snapshot l2.loads = %v, Result.L2Loads = %d", v, res.L2Loads)
	}
	if v, _ := ev.Snapshot.Value("l2.stores"); v != float64(res.L2Stores) {
		t.Errorf("snapshot l2.stores = %v, Result.L2Stores = %d", v, res.L2Stores)
	}
	if v, ok := ev.Snapshot.Value("power.network_w"); !ok || v != res.NetworkPowerW {
		t.Errorf("snapshot power.network_w = %v (ok=%v), Result.NetworkPowerW = %v", v, ok, res.NetworkPowerW)
	}
	if v, ok := ev.Snapshot.Value("l2.close_hit_pct"); !ok || v != res.CloseHitPct {
		t.Errorf("snapshot l2.close_hit_pct = %v (ok=%v), Result.CloseHitPct = %v", v, ok, res.CloseHitPct)
	}
	// Layers beyond the L2 must be present: the spine spans the whole
	// machine, not just the cache.
	for _, name := range []string{"cpu.l1d.misses", "cpu.rob.stalls", "workload.mem_ops"} {
		if _, ok := ev.Snapshot.Value(name); !ok {
			t.Errorf("snapshot missing %s — a non-cache layer did not register", name)
		}
	}
}

// TestSampledMetricsExtendToEveryCounter checks sampled mode's generic
// per-counter confidence intervals: every registered counter appears in
// SampledResult.Metrics (sorted), and the cache-traffic rates are plausible.
func TestSampledMetricsExtendToEveryCounter(t *testing.T) {
	opt := DefaultOptions()
	opt.RunInstructions = 1_000_000
	opt.SampleIntervals = 8
	opt.SampleLength = 25_000
	sres, err := RunSampled(DesignTLC, "gcc", opt)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Intervals != 8 {
		t.Fatalf("ran %d intervals, want 8", sres.Intervals)
	}
	if len(sres.Metrics) == 0 {
		t.Fatal("SampledResult.Metrics is empty")
	}
	if !sort.SliceIsSorted(sres.Metrics, func(i, j int) bool {
		return sres.Metrics[i].Name < sres.Metrics[j].Name
	}) {
		t.Error("SampledResult.Metrics not sorted by name")
	}
	byName := make(map[string]MetricCI, len(sres.Metrics))
	for _, m := range sres.Metrics {
		if m.CI95 < 0 {
			t.Errorf("%s: negative CI95 %v", m.Name, m.CI95)
		}
		byName[m.Name] = m
	}
	loads, ok := byName["l2.loads"]
	if !ok {
		t.Fatal("sampled metrics missing l2.loads")
	}
	if loads.MeanPer1K <= 0 {
		t.Errorf("l2.loads rate = %v per 1K instructions, want > 0", loads.MeanPer1K)
	}
	// The per-interval rate times the detailed instruction count must land
	// near the (unscaled) detailed-mode counter total.
	detailed := loads.MeanPer1K * float64(sres.DetailedInstructions) / 1000
	scaled := detailed * float64(opt.RunInstructions) / float64(sres.DetailedInstructions)
	if ratio := scaled / float64(sres.L2Loads); ratio < 0.99 || ratio > 1.01 {
		t.Errorf("sampled l2.loads rate inconsistent with Result.L2Loads: ratio %v", ratio)
	}
}
