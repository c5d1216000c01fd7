package tlc

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablation benches DESIGN.md section 5 calls out. Each bench
// regenerates its experiment at a reduced scale (200 K timed instructions,
// 2 M warm) and reports the experiment's headline quantities as custom
// metrics, so `go test -bench=. -benchmem` doubles as a quick reproduction
// of the paper's shapes. cmd/tlctables runs the full-scale versions.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/nuca"
	"tlc/internal/sim"
	"tlc/internal/stats"
	"tlc/internal/tlcache"
	"tlc/internal/tline"
	"tlc/internal/wire"
	"tlc/internal/workload"
)

// benchOptions is the reduced scale used by the benchmark harness.
func benchOptions() Options {
	return Options{WarmInstructions: 2_000_000, RunInstructions: 200_000, Seed: 1}
}

// benchRun runs one (design, benchmark) pair at bench scale.
func benchRun(b *testing.B, d Design, bench string) Result {
	b.Helper()
	res, err := Run(d, bench, benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkTable1TransmissionLines(b *testing.B) {
	var minAmp, minPulse float64
	for i := 0; i < b.N; i++ {
		minAmp, minPulse = 1, 1000
		for _, rep := range AnalyzeLines() {
			if !rep.OK {
				b.Fatalf("Table 1 geometry %+v fails acceptance", rep.Geometry)
			}
			minAmp = math.Min(minAmp, rep.AmplitudeFrac)
			minPulse = math.Min(minPulse, rep.PulseWidthPs)
		}
	}
	b.ReportMetric(minAmp, "min_amplitude_xVdd")
	b.ReportMetric(minPulse, "min_pulse_ps")
}

func BenchmarkTable2DesignParameters(b *testing.B) {
	want := map[Design][2]uint64{
		DesignTLC:        {10, 16},
		DesignTLCOpt1000: {12, 13},
		DesignTLCOpt500:  {12, 12},
		DesignTLCOpt350:  {12, 12},
		DesignSNUCA2:     {9, 32},
		DesignDNUCA:      {3, 47},
	}
	for i := 0; i < b.N; i++ {
		for d, r := range want {
			min, max := UncontendedRange(d)
			if min != r[0] || max != r[1] {
				b.Fatalf("%v uncontended range %d-%d, want %d-%d", d, min, max, r[0], r[1])
			}
		}
	}
	b.ReportMetric(2048, "tlc_total_lines")
}

func BenchmarkFigure3WireComparison(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rep := wire.Repeat(wire.Global45(), 20).DelayPs
		tl := 20e-3 / tline.Extract(tline.Table1()[2]).Velocity * 1e12
		speedup = rep / tl
	}
	b.ReportMetric(speedup, "tl_speedup_2cm")
	b.ReportMetric(wire.Repeat(wire.Global45(), 20).DelayCycles(), "rc_2cm_cycles")
}

func BenchmarkTable6BenchmarkCharacteristics(b *testing.B) {
	var tlcPred, dnucaPred float64
	for i := 0; i < b.N; i++ {
		tlcPred, dnucaPred = 0, 0
		for _, bench := range Benchmarks() {
			tlcPred += benchRun(b, DesignTLC, bench).PredictablePct
			dnucaPred += benchRun(b, DesignDNUCA, bench).PredictablePct
		}
	}
	n := float64(len(Benchmarks()))
	b.ReportMetric(tlcPred/n, "tlc_predictable_pct")
	b.ReportMetric(dnucaPred/n, "dnuca_predictable_pct")
}

func BenchmarkTable7SubstrateArea(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		dn := Area(DesignDNUCA).TotalMM2()
		tl := Area(DesignTLC).TotalMM2()
		savings = 100 * (1 - tl/dn)
	}
	b.ReportMetric(savings, "area_savings_pct")
	b.ReportMetric(Area(DesignTLC).TotalMM2(), "tlc_total_mm2")
}

func BenchmarkTable8NetworkTransistors(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = float64(Transistors(DesignDNUCA).Count) / float64(Transistors(DesignTLC).Count)
	}
	b.ReportMetric(ratio, "transistor_ratio")
	b.ReportMetric(Transistors(DesignDNUCA).GateWidthLambda/1e6, "dnuca_gate_Mlambda")
	b.ReportMetric(Transistors(DesignTLC).GateWidthLambda/1e6, "tlc_gate_Mlambda")
}

func BenchmarkTable9DynamicPower(b *testing.B) {
	var avgSavings, dnucaBanks float64
	for i := 0; i < b.N; i++ {
		avgSavings, dnucaBanks = 0, 0
		for _, bench := range Benchmarks() {
			dr := benchRun(b, DesignDNUCA, bench)
			tr := benchRun(b, DesignTLC, bench)
			avgSavings += 1 - tr.NetworkPowerW/dr.NetworkPowerW
			dnucaBanks += dr.BanksPerRequest
		}
		avgSavings /= float64(len(Benchmarks()))
		dnucaBanks /= float64(len(Benchmarks()))
	}
	b.ReportMetric(avgSavings*100, "power_savings_pct")
	b.ReportMetric(dnucaBanks, "dnuca_banks_per_req")
}

func BenchmarkFigure5NormalizedExecTime(b *testing.B) {
	var dnuca, tlcs stats.Series
	for i := 0; i < b.N; i++ {
		dnuca, tlcs = stats.Series{}, stats.Series{}
		for _, bench := range Benchmarks() {
			base := float64(benchRun(b, DesignSNUCA2, bench).Cycles)
			dnuca.Append(bench, float64(benchRun(b, DesignDNUCA, bench).Cycles)/base)
			tlcs.Append(bench, float64(benchRun(b, DesignTLC, bench).Cycles)/base)
		}
	}
	b.ReportMetric(dnuca.GeoMean(), "dnuca_norm_exec_geomean")
	b.ReportMetric(tlcs.GeoMean(), "tlc_norm_exec_geomean")
}

func BenchmarkFigure6MeanLookupLatency(b *testing.B) {
	var tlcMin, tlcMax, dnMin, dnMax float64
	for i := 0; i < b.N; i++ {
		tlcMin, tlcMax, dnMin, dnMax = math.Inf(1), 0, math.Inf(1), 0
		for _, bench := range Benchmarks() {
			t := benchRun(b, DesignTLC, bench).MeanLookup
			d := benchRun(b, DesignDNUCA, bench).MeanLookup
			tlcMin, tlcMax = math.Min(tlcMin, t), math.Max(tlcMax, t)
			dnMin, dnMax = math.Min(dnMin, d), math.Max(dnMax, d)
		}
	}
	b.ReportMetric(tlcMax-tlcMin, "tlc_lookup_spread_cycles")
	b.ReportMetric(dnMax-dnMin, "dnuca_lookup_spread_cycles")
	b.ReportMetric(tlcMax, "tlc_lookup_max_cycles")
}

func BenchmarkFigure7LinkUtilization(b *testing.B) {
	var baseMax, opt350Max float64
	for i := 0; i < b.N; i++ {
		baseMax, opt350Max = 0, 0
		for _, bench := range Benchmarks() {
			baseMax = math.Max(baseMax, benchRun(b, DesignTLC, bench).LinkUtilization)
			opt350Max = math.Max(opt350Max, benchRun(b, DesignTLCOpt350, bench).LinkUtilization)
		}
	}
	b.ReportMetric(baseMax*100, "tlc_max_util_pct")
	b.ReportMetric(opt350Max*100, "opt350_max_util_pct")
}

func BenchmarkFigure8TLCFamilyExecTime(b *testing.B) {
	var worstDelta float64
	for i := 0; i < b.N; i++ {
		worstDelta = 0
		for _, bench := range Benchmarks() {
			base := float64(benchRun(b, DesignTLC, bench).Cycles)
			for _, d := range []Design{DesignTLCOpt1000, DesignTLCOpt500, DesignTLCOpt350} {
				norm := float64(benchRun(b, d, bench).Cycles) / base
				worstDelta = math.Max(worstDelta, math.Abs(norm-1))
			}
		}
	}
	b.ReportMetric(worstDelta*100, "family_worst_exec_delta_pct")
}

func BenchmarkFullScaleSampledSpeedup(b *testing.B) {
	// Sampling's wall-clock gain at full scale (16 M warm + 2 M timed),
	// like for like: both arms restore the same pre-populated checkpoint,
	// so wallclock_speedup measures only the cut in detailed work. The
	// gain from skipping warm-up is reported separately as
	// warm_amortization: a cold full run (warm-up re-executed) against the
	// restored full run.
	cold := Options{WarmInstructions: 16_000_000, RunInstructions: 2_000_000, Seed: 1}
	full := cold
	full.Checkpoints = NewCheckpointStore(0, "")
	sampled := full
	sampled.SampleIntervals = 50
	sampled.SampleLength = 2_000
	// Populate the checkpoint outside the timed region: the steady state
	// being modeled is a sweep or seed set that warms once.
	if _, err := Run(DesignTLC, "gcc", full); err != nil {
		b.Fatal(err)
	}
	var coldNS, fullNS, sampledNS time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := Run(DesignTLC, "gcc", cold); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := Run(DesignTLC, "gcc", full); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if _, err := RunSampled(DesignTLC, "gcc", sampled); err != nil {
			b.Fatal(err)
		}
		coldNS += t1.Sub(t0)
		fullNS += t2.Sub(t1)
		sampledNS += time.Since(t2)
	}
	b.ReportMetric(float64(fullNS)/float64(sampledNS), "wallclock_speedup")
	b.ReportMetric(float64(coldNS)/float64(fullNS), "warm_amortization")
	b.ReportMetric(float64(coldNS.Milliseconds())/float64(b.N), "cold_ms_per_run")
	b.ReportMetric(float64(fullNS.Milliseconds())/float64(b.N), "full_ms_per_run")
	b.ReportMetric(float64(sampledNS.Milliseconds())/float64(b.N), "sampled_ms_per_run")
}

func BenchmarkWarmThroughput(b *testing.B) {
	// The batched-delivery acceptance gate: Core.Warm (NextMems run-length
	// skipping + fused L1 sweep + bulk L2 installs) against the
	// per-instruction reference loop (refWarmer), on identically prepared
	// machines. Two workload profiles bound the gain: bzip's references stay
	// in the L1-resident region (delivery-dominated, where fusion pays
	// most), gcc spreads work across the skewed hot set and the TLC warm
	// kernel. The benchmark doubles as a determinism smoke check: after the
	// timed sections, both arms' L1 and L2 state must be bit-identical, so
	// CI's short -benchtime run fails loudly on any batched/scalar
	// divergence.
	for _, name := range []string{"bzip", "gcc"} {
		b.Run(name, func(b *testing.B) {
			sys := config.DefaultSystem()
			spec, _ := workload.SpecByName(name)
			const warmN = 2_000_000
			mk := func() (*workload.Generator, *tlcache.Cache) {
				gen := workload.New(spec, 1)
				c := tlcache.New(config.TLC, sys.MemoryLatency)
				gen.PreWarm(c)
				return gen, c
			}
			scalarGen, scalarL2 := mk()
			ref := newRefWarmer(scalarL2)
			ref.warm(scalarGen, warmN) // steady-state caches before timing
			fastGen, fastL2 := mk()
			fastCore := cpu.New(sys, fastL2)
			fastCore.Warm(fastGen, warmN) // steady-state caches and buffers

			var scalarNS, fastNS time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				ref.warm(scalarGen, warmN)
				t1 := time.Now()
				fastCore.Warm(fastGen, warmN)
				scalarNS += t1.Sub(t0)
				fastNS += time.Since(t1)
			}
			b.ReportMetric(float64(scalarNS)/float64(fastNS), "warm_speedup")
			b.ReportMetric(float64(b.N)*warmN/1e6/fastNS.Seconds(), "batched_Minstr_per_s")
			b.ReportMetric(float64(b.N)*warmN/1e6/scalarNS.Seconds(), "scalar_Minstr_per_s")

			// Divergence check: both arms consumed the identical stream, so
			// state must match exactly.
			if scalarGen.State() != fastGen.State() {
				b.Fatal("batched and scalar warm diverged: generator state mismatch")
			}
			if !reflect.DeepEqual(ref.state(), fastCore.Snapshot()) {
				b.Fatal("batched and scalar warm diverged: L1 state mismatch")
			}
			if !reflect.DeepEqual(scalarL2.SnapshotState(), fastL2.SnapshotState()) {
				b.Fatal("batched and scalar warm diverged: L2 state mismatch")
			}
		})
	}
}

// BenchmarkLaneSweep is the lane-parallel acceptance gate: warming every
// design of the grid off one shared stream (one core whose L2 fans each
// sweep's spill out to every design, as WarmLanes does) against warming
// each design off its own stream (Core.Warm per design, the best per-point
// execution). The scalar arm pays stream generation, batching and the L1
// sweep once per design; the lane arm pays them once for the whole group,
// leaving only the per-design L2 installs as per-lane work. Like
// BenchmarkWarmThroughput it doubles as a determinism smoke check: after
// the timed sections, every lane's core, L2, and generator position must
// match its scalar twin bit for bit, so CI's short -benchtime run fails
// loudly on any divergence.
func BenchmarkLaneSweep(b *testing.B) {
	for _, name := range []string{"bzip", "gcc"} {
		b.Run(name, func(b *testing.B) {
			sys := config.DefaultSystem()
			spec, _ := workload.SpecByName(name)
			designs := Designs()
			const warmN = 2_000_000

			// Scalar arm: one private stream and core per design.
			scalarGens := make([]*workload.Generator, len(designs))
			scalarCores := make([]*cpu.Core, len(designs))
			scalarL2s := make([]l2.Snapshotter, len(designs))
			for i, d := range designs {
				inst := Build(d, Options{})
				scalarGens[i] = workload.New(spec, 1)
				scalarGens[i].PreWarm(inst)
				scalarCores[i] = cpu.New(sys, inst)
				scalarL2s[i] = inst.(l2.Snapshotter)
				scalarCores[i].Warm(scalarGens[i], warmN) // steady state before timing
			}
			// Lane arm: one shared stream and core drive every design.
			laneGen := workload.New(spec, 1)
			fan := make(laneFanout, len(designs))
			laneL2s := make([]l2.Snapshotter, len(designs))
			for i, d := range designs {
				inst := Build(d, Options{})
				fan[i] = &lane{design: d, inst: inst}
				laneL2s[i] = inst.(l2.Snapshotter)
			}
			laneGen.PreWarm(fan)
			laneCore := cpu.New(sys, fan)
			laneCore.Warm(laneGen, warmN)

			var scalarNS, laneNS time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for j, c := range scalarCores {
					c.Warm(scalarGens[j], warmN)
				}
				t1 := time.Now()
				laneCore.Warm(laneGen, warmN)
				scalarNS += t1.Sub(t0)
				laneNS += time.Since(t1)
			}
			b.ReportMetric(float64(scalarNS)/float64(laneNS), "lane_speedup")
			b.ReportMetric(float64(b.N)*warmN*float64(len(designs))/1e6/laneNS.Seconds(), "lane_Minstr_per_s")
			b.ReportMetric(float64(b.N)*warmN*float64(len(designs))/1e6/scalarNS.Seconds(), "scalar_Minstr_per_s")

			// Divergence check: each lane consumed the identical stream its
			// scalar twin did, so all state must match exactly.
			for i, d := range designs {
				if scalarGens[i].State() != laneGen.State() {
					b.Fatalf("%v: lane and scalar warm diverged: generator state mismatch", d)
				}
				if !reflect.DeepEqual(scalarCores[i].Snapshot(), laneCore.Snapshot()) {
					b.Fatalf("%v: lane and scalar warm diverged: L1 state mismatch", d)
				}
				if !reflect.DeepEqual(scalarL2s[i].SnapshotState(), laneL2s[i].SnapshotState()) {
					b.Fatalf("%v: lane and scalar warm diverged: L2 state mismatch", d)
				}
			}
		})
	}
}

// warmRecorder is an L2 that only records the blocks warm-up installs, in
// order, so one warm-up's install stream can be replayed into every design.
type warmRecorder struct{ blocks []mem.Block }

func (r *warmRecorder) Access(sim.Time, mem.Request) l2.Outcome {
	panic("warmRecorder: timed access during warm-up")
}
func (r *warmRecorder) Warm(b mem.Block)            { r.blocks = append(r.blocks, b) }
func (r *warmRecorder) WarmBulk(blocks []mem.Block) { r.blocks = append(r.blocks, blocks...) }
func (r *warmRecorder) Contains(mem.Block) bool     { return false }

// BenchmarkL2Warm times each design's warm-up install path alone: gcc's
// pre-warm plus a 2 M-instruction warm stretch is recorded once, then
// replayed into a fresh cache of each design in the 1024-block batches
// pre-warm uses. It reports ns per installed block; building the cache is
// not timed.
func BenchmarkL2Warm(b *testing.B) {
	spec, _ := workload.SpecByName("gcc")
	gen := workload.New(spec, 1)
	rec := &warmRecorder{}
	gen.PreWarm(rec)
	cpu.New(config.DefaultSystem(), rec).Warm(gen, 2_000_000)
	blocks := rec.blocks
	for _, d := range Designs() {
		b.Run(d.String(), func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				c := Build(d, Options{})
				b.StartTimer()
				for lo := 0; lo < len(blocks); lo += 1024 {
					l2.WarmAll(c, blocks[lo:min(lo+1024, len(blocks))])
				}
				b.StopTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(blocks)), "ns/block")
		})
	}
}

// BenchmarkRestoreRun times what a tlcd request for a warmed cell costs:
// one run at serve-mix scale (1 M warm-up, 100 K timed instructions) whose
// warm state comes from a primed in-memory checkpoint store, so each run
// builds the design, restores the checkpoint and times the interval. It
// reports ns per run for each design on gcc and fails unless every timed
// run was a restore.
func BenchmarkRestoreRun(b *testing.B) {
	for _, d := range Designs() {
		b.Run(d.String(), func(b *testing.B) {
			opt := Options{WarmInstructions: 1_000_000, RunInstructions: 100_000, Seed: 100, WarmSeed: 1,
				Checkpoints: NewCheckpointStore(0, "")}
			if _, err := Run(d, "gcc", opt); err != nil {
				b.Fatal(err)
			}
			opt.Seed = 101
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(d, "gcc", opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := opt.Checkpoints.Stats(); st.Puts != 1 || st.Hits != uint64(b.N) {
				b.Fatalf("store stats %+v, want %d restores after one warm-up", st, b.N)
			}
		})
	}
}

// --- Ablation benches (DESIGN.md section 5) ---

func BenchmarkAblationDNUCAPromotion(b *testing.B) {
	sys := config.DefaultSystem()
	var with, without float64
	for i := 0; i < b.N; i++ {
		run := func(disable bool) float64 {
			spec, _ := workload.SpecByName("gcc")
			gen := workload.New(spec, 1)
			d := nuca.NewDNUCA(sys.MemoryLatency)
			d.Abl.DisablePromotion = disable
			gen.PreWarm(d)
			core := cpu.New(sys, d)
			core.Warm(gen, 2_000_000)
			return float64(core.Run(gen, 200_000).Cycles)
		}
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(without/with, "exec_ratio_without_promotion")
}

func BenchmarkAblationDNUCAPartialTags(b *testing.B) {
	sys := config.DefaultSystem()
	var with, without float64
	for i := 0; i < b.N; i++ {
		run := func(disable bool) float64 {
			spec, _ := workload.SpecByName("mcf")
			gen := workload.New(spec, 1)
			d := nuca.NewDNUCA(sys.MemoryLatency)
			d.Abl.DisablePartialTags = disable
			gen.PreWarm(d)
			core := cpu.New(sys, d)
			core.Warm(gen, 2_000_000)
			core.Run(gen, 200_000)
			return d.Lookup.Mean()
		}
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(without-with, "lookup_cycles_added_without_ptags")
}

func BenchmarkAblationTLCLinkMargin(b *testing.B) {
	sys := config.DefaultSystem()
	var base, widened float64
	for i := 0; i < b.N; i++ {
		run := func(margin int) float64 {
			spec, _ := workload.SpecByName("mcf")
			gen := workload.New(spec, 1)
			c := tlcache.New(config.TLC, sys.MemoryLatency)
			c.AddLinkMargin(sim.Time(margin))
			gen.PreWarm(c)
			core := cpu.New(sys, c)
			core.Warm(gen, 2_000_000)
			return float64(core.Run(gen, 200_000).Cycles)
		}
		base = run(0)
		widened = run(2)
	}
	b.ReportMetric(widened/base, "exec_ratio_with_2cycle_margin")
}

func BenchmarkAblationReplacementOnEquake(b *testing.B) {
	// The equake story (Section 6.1): DNUCA's insert-far placement
	// shields its hot set from the stream; TLC's LRU does not.
	var tlcMiss, dnucaMiss float64
	for i := 0; i < b.N; i++ {
		tlcMiss = benchRun(b, DesignTLC, "equake").MissesPer1K
		dnucaMiss = benchRun(b, DesignDNUCA, "equake").MissesPer1K
	}
	b.ReportMetric(tlcMiss, "tlc_equake_miss_per_1k")
	b.ReportMetric(dnucaMiss, "dnuca_equake_miss_per_1k")
}

func BenchmarkAblationTLCoptMultiMatch(b *testing.B) {
	// Multi-matches need full sets with diverse tags: equake's large
	// resident hot set provides them (the SPECint footprints span too few
	// address-space chunks for 6-bit partial tags to alias).
	sys := config.DefaultSystem()
	var rate float64
	for i := 0; i < b.N; i++ {
		spec, _ := workload.SpecByName("equake")
		gen := workload.New(spec, 1)
		c := tlcache.New(config.TLCOpt500, sys.MemoryLatency)
		gen.PreWarm(c)
		core := cpu.New(sys, c)
		core.Warm(gen, 2_000_000)
		core.Run(gen, 200_000)
		rate = 100 * float64(c.MultiMatches) / float64(c.Loads.Value())
	}
	b.ReportMetric(rate, "multimatch_pct_of_lookups")
}

func BenchmarkAblationTLCNoiseECC(b *testing.B) {
	// The reliability extension (Section 4): sweep residual line noise
	// and measure what end-to-end ECC retries cost. At the operating
	// points the paper's conservative margins target, the cost is nil.
	sys := config.DefaultSystem()
	var retryRate, execRatio float64
	for i := 0; i < b.N; i++ {
		run := func(ber float64) (float64, float64) {
			spec, _ := workload.SpecByName("gcc")
			gen := workload.New(spec, 1)
			c := tlcache.New(config.TLC, sys.MemoryLatency)
			if ber > 0 {
				c.SetNoise(ber)
			}
			gen.PreWarm(c)
			core := cpu.New(sys, c)
			core.Warm(gen, 2_000_000)
			cr := core.Run(gen, 200_000)
			return float64(cr.Cycles), float64(c.ECCRetries) / float64(c.Loads.Value())
		}
		clean, _ := run(0)
		noisy, rr := run(5e-4)
		retryRate = rr
		execRatio = noisy / clean
	}
	b.ReportMetric(retryRate*100, "retry_pct_at_BER_5e-4")
	b.ReportMetric(execRatio, "exec_ratio_at_BER_5e-4")
}
