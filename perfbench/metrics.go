package main

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists
// it (TestBenchmarkJSONMatchesMetrics keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by every workload with -trace 0. A request
// is one HTTP run request on serve-mix and one grid cell on the grids; the
// tail is the highest of p99 and p85 with at least ten samples beyond it.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"req_per_s", "req/s", "higher"},
	{"req_p50_ms", "ms", "lower"},
	{"req_tail_ms", "ms", "lower"},
}

// perLayerMetrics are reported by every workload with -trace 1; a module
// the workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	// experiments
	{"experiments.lane_warm_s", "s", "lower"},
	{"experiments.cell_p50_ms", "ms", "lower"},
	{"experiments.cell_p85_ms", "ms", "lower"},
	{"experiments.simulated", "count", "lower"},
	{"experiments.self_s", "s", "lower"},
	{"sim.lanes.batches_shared", "count", "higher"},
	{"sim.lanes.lanes_warmed", "count", "higher"},
	{"sim.lanes.scalar_points", "count", "lower"},
	// workload
	{"workload.self_s", "s", "lower"},
	{"workload.mem_ops", "count", "lower"},
	// cache
	{"cache.self_s", "s", "lower"},
	{"cpu.l1d.hits", "count", "higher"},
	{"cpu.l1d.misses", "count", "lower"},
	// cpu
	{"cpu.self_s", "s", "lower"},
	{"cpu.timed_instructions", "count", "lower"},
	{"cpu.rob.stalls", "count", "lower"},
	{"cpu.sched.stalls", "count", "lower"},
	{"cpu.mshr.waits", "count", "lower"},
	{"cpu.fetch.mispredicts", "count", "lower"},
	// L2 path
	{"l2.self_s", "s", "lower"},
	{"tlcache.self_s", "s", "lower"},
	{"nuca.self_s", "s", "lower"},
	{"noc.self_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"mem.self_s", "s", "lower"},
	{"l2.loads", "count", "lower"},
	{"l2.misses", "count", "lower"},
	{"l2.searches", "count", "lower"},
	{"l2.promotions", "count", "lower"},
	{"l2.bank_busy_cycles", "count", "lower"},
	{"noc.messages", "count", "lower"},
	{"tl.up_flits", "count", "lower"},
	{"tl.down_flits", "count", "lower"},
	// sample
	{"sample.self_s", "s", "lower"},
	{"sample.phase.windows", "count", "lower"},
	{"sample.phase.clusters", "count", "lower"},
	{"sample.phase.profile_cached", "count", "higher"},
	{"sample.detailed_instructions", "count", "lower"},
	{"sample.profiles.hits", "count", "higher"},
	{"sample.profiles.misses", "count", "lower"},
	{"sample.profiles.puts", "count", "lower"},
	{"cycles_err_max_pct", "%", "lower"},
	{"cycles_err_mean_pct", "%", "lower"},
	{"rank_inversions", "count", "lower"},
	// snapshot
	{"snapshot.self_s", "s", "lower"},
	{"snapshot.hits", "count", "higher"},
	{"snapshot.disk_hits", "count", "lower"},
	{"snapshot.misses", "count", "lower"},
	{"snapshot.puts", "count", "lower"},
	{"snapshot.hit_ratio", "ratio", "higher"},
	// machine
	{"machine.self_s", "s", "lower"},
	{"coh.busrd", "count", "lower"},
	{"coh.busrdx", "count", "lower"},
	{"coh.invalidations", "count", "lower"},
	{"coh.downgrades", "count", "lower"},
	{"cmp.arb.delayed", "count", "lower"},
	{"cmp.arb.delay_cycles", "count", "lower"},
	// service
	{"server.handler_p50_ms", "ms", "lower"},
	{"server.handler_p99_ms", "ms", "lower"},
	{"server.hit_p50_ms", "ms", "lower"},
	{"server.exec_p50_ms", "ms", "lower"},
	{"server.self_s", "s", "lower"},
	{"api.self_s", "s", "lower"},
	{"client.self_s", "s", "lower"},
	{"encoding_json.self_s", "s", "lower"},
	{"net_http.self_s", "s", "lower"},
	{"server.runs.cache_hits", "count", "higher"},
	{"server.runs.coalesced", "count", "higher"},
	{"server.runs.executed", "count", "lower"},
	{"server.runs.rejected", "count", "lower"},
	{"server.runs.failed", "count", "lower"},
	{"server.hit_ratio", "ratio", "higher"},
	// shared code and the Go runtime
	{"metrics.self_s", "s", "lower"},
	{"stats.self_s", "s", "lower"},
	{"tlc.self_s", "s", "lower"},
	{"other.self_s", "s", "lower"},
	{"total.self_s", "s", "lower"},
	{"runtime.self_s", "s", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	// tracing
	{"trace.untraced_wall_s", "s", "lower"},
	{"trace.traced_wall_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}
