// Package tlc is the public API of this reproduction of "TLC: Transmission
// Line Caches" (Beckmann & Wood, MICRO 2003). It builds any of the paper's
// six level-2 cache designs, runs the twelve synthetic benchmarks against
// them on the Table 3 processor model, and reports every metric the
// paper's tables and figures use.
//
// Quick start:
//
//	res, err := tlc.Run(tlc.DesignTLC, "gcc", tlc.DefaultOptions())
//	fmt.Printf("IPC %.3f, mean L2 lookup %.1f cycles\n", res.IPC, res.MeanLookup)
//
// The per-design physical models are also exposed: tlc.Area and
// tlc.Transistors reproduce Tables 7-8, and tlc.AnalyzeLines the Table 1
// signal-integrity study.
package tlc

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"tlc/internal/area"
	"tlc/internal/config"
	"tlc/internal/dram"
	"tlc/internal/l2"
	"tlc/internal/metrics"
	"tlc/internal/noc"
	"tlc/internal/nuca"
	"tlc/internal/power"
	"tlc/internal/sample"
	"tlc/internal/sim"
	"tlc/internal/snapshot"
	"tlc/internal/stats"
	"tlc/internal/tlcache"
	"tlc/internal/tline"
	"tlc/internal/workload"
)

// Design identifies one of the six evaluated cache designs.
type Design = config.Design

// The six designs of Table 2.
const (
	DesignSNUCA2     = config.SNUCA2
	DesignDNUCA      = config.DNUCA
	DesignTLC        = config.TLC
	DesignTLCOpt1000 = config.TLCOpt1000
	DesignTLCOpt500  = config.TLCOpt500
	DesignTLCOpt350  = config.TLCOpt350
)

// Designs lists every design in Table 2 order.
func Designs() []Design { return config.AllDesigns() }

// TLCFamily lists the four transmission-line designs (Figures 7-8).
func TLCFamily() []Design { return config.TLCFamily() }

// Benchmarks lists the twelve benchmark names in Table 6 order.
func Benchmarks() []string { return workload.Names() }

// Options controls one simulation run.
type Options struct {
	// WarmInstructions run functionally before timing starts. Zero means
	// automatic: enough to converge the hot working set's placement
	// (workload.Spec.AutoWarmInstructions).
	WarmInstructions uint64
	// RunInstructions are timed.
	RunInstructions uint64
	// Seed makes the synthetic trace deterministic; the same seed gives
	// the identical instruction stream to every design.
	Seed int64
	// UseDRAM replaces the Table 3 flat 300-cycle memory with the banked
	// DRAM model (channels, banks, row buffers) — the substrate extension
	// for memory-system sensitivity studies.
	UseDRAM bool
	// BitErrorRate enables transmission-line noise injection with
	// end-to-end SEC-DED ECC at the controller (TLC designs only):
	// single-bit upsets are corrected in place, detected double-bit
	// errors cost a retry round trip. Zero disables injection.
	BitErrorRate float64

	// Cores is the CMP core count. Zero or one runs a one-core machine:
	// its core drives the L2 design directly and the registry holds the
	// plain cpu.* and workload.* names. 2..64 runs N cores as NOC peers
	// over the shared L2 design, with private L1s kept coherent by an MSI
	// directory; per-core counters appear under "core.<i>." alongside the
	// aggregate names, and coherence traffic under "coh.".
	Cores int
	// Sharing shapes how the cores' streams relate (CMP runs only): the
	// zero value stripes each core's private copy of the benchmark across
	// disjoint address ranges; see workload.SharingSpec for the
	// cross-core patterns.
	Sharing SharingSpec

	// WarmSeed, when nonzero, seeds the warm-up stream separately from
	// the timed run: after warm-up the generator reseeds with Seed, so a
	// seed sweep measures every seed from one shared warmed machine state
	// (and one shared checkpoint). Zero warms with Seed itself.
	WarmSeed int64

	// Checkpoints, when non-nil, caches post-warm machine state keyed by
	// (design configuration, benchmark, warm seed, warm length). A run
	// whose key is present restores the state and skips warm-up entirely;
	// restored runs are bit-identical to runs that re-executed the
	// warm-up, because warm-up is purely functional. Share one store
	// across runs/goroutines to amortize warm-up; see NewCheckpointStore.
	Checkpoints *CheckpointStore

	// SampleIntervals, when positive, switches timing to SMARTS-style
	// sampled execution: SampleIntervals detailed intervals of
	// SampleLength instructions each, separated by functional
	// fast-forwarding, covering RunInstructions in total. Cycle counts
	// are estimated from per-interval CPI; RunSampled additionally
	// reports 95% confidence intervals.
	SampleIntervals int
	// SampleLength is the detailed instructions per interval (used by both
	// uniform sampling and phase mode).
	SampleLength uint64

	// PhaseWindows and PhaseClusters, both positive, switch timing to
	// phase-aware representative sampling: a cheap profiling pass slices
	// the timed stream into PhaseWindows fixed windows, k-means clusters
	// their feature vectors into PhaseClusters program phases
	// (deterministically, seeded from the profile's content key), and one
	// weighted representative interval of SampleLength instructions runs
	// per cluster — typically several times fewer detailed intervals than
	// uniform sampling at the same accuracy. Mutually exclusive with
	// SampleIntervals.
	PhaseWindows  int
	PhaseClusters int

	// PhaseProfiles, when non-nil, caches phase profiles keyed by workload
	// content (the profile is design-independent, so one entry serves all
	// six designs of a benchmark). Clustering is then paid once per
	// benchmark; see NewPhaseProfileStore. A miss recomputes and stores.
	PhaseProfiles *PhaseProfileStore

	// Cancel, when non-nil, is polled at batch boundaries (every few
	// thousand instructions) during warm-up and timed execution. When it
	// returns a non-nil error the run aborts and Run returns that error;
	// partially warmed state is discarded and never checkpointed. Pass a
	// context's Err method to bound a run by a deadline:
	//
	//	opt.Cancel = ctx.Err
	//
	// Cancellation is cooperative and read-only: a run that was not
	// cancelled is bit-identical to one executed with Cancel unset.
	Cancel func() error

	// OnMetrics, when set, receives the run's full metric-registry
	// snapshot after timing finishes — every counter, gauge, and histogram
	// each simulation layer registered, far beyond the fields Result
	// carries. It fires once per executed run (a Suite's cached duplicate
	// runs reuse the original's snapshot without re-firing).
	OnMetrics func(MetricsEvent)
}

// MetricsSnapshot is a point-in-time reading of a run's full metric
// registry, sorted by name.
type MetricsSnapshot = metrics.Snapshot

// MetricsEvent delivers one finished run's metrics to Options.OnMetrics.
type MetricsEvent struct {
	Design    Design
	Benchmark string
	// Cycles is the simulated clock the gauges were evaluated at: the
	// run's final cycle (detailed-window span in sampled mode).
	Cycles uint64
	// Snapshot holds every registered metric. It shares no state with the
	// finished run and is safe to retain.
	Snapshot MetricsSnapshot
}

// SampleOptions projects the sampling fields.
func (o Options) SampleOptions() sample.Options {
	return sample.Options{
		Intervals:     o.SampleIntervals,
		Length:        o.SampleLength,
		PhaseWindows:  o.PhaseWindows,
		PhaseClusters: o.PhaseClusters,
	}
}

// Sampled reports whether the options request sampled execution: uniform
// intervals, or phase windows/clusters (possibly half-configured, so
// validation can name the missing field).
func (o Options) Sampled() bool { return o.SampleIntervals > 0 || o.SampleOptions().Phase() }

// SharingSpec parameterizes cross-core sharing in CMP runs; see
// workload.SharingSpec.
type SharingSpec = workload.SharingSpec

// CMPConfig is the CMP axis of a run's configuration, folded into
// checkpoint and content keys: the core count, the coherence protocol,
// and the normalized sharing spec. Single-core runs normalize to
// {Cores: 1} — no protocol, no sharing — so the pre-CMP key space does
// not fork per ignored sharing knob.
type CMPConfig struct {
	Cores    int
	Protocol string
	Sharing  SharingSpec
}

// cores resolves Options.Cores: zero means one.
func (o Options) cores() int {
	if o.Cores <= 1 {
		return 1
	}
	return o.Cores
}

// cmpConfig normalizes the CMP axis for key hashing.
func (o Options) cmpConfig() CMPConfig {
	n := o.cores()
	if n == 1 {
		return CMPConfig{Cores: 1}
	}
	return CMPConfig{Cores: n, Protocol: "MSI", Sharing: o.Sharing.Normalize()}
}

// Validate checks the options for configurations a run would reject: the
// CMP axis (a negative core count, more cores than the 64-wide directory
// bitmap holds, an unknown sharing pattern) and, when the options select
// sampled execution, the whole sampling plan including its fit in
// RunInstructions (sample.Options.Validate). The run entry points validate
// internally; CLIs and the service call this early so a bad flag or request
// fails with the same one-line error before any simulation starts.
func (o Options) Validate() error {
	if err := o.validateCMP(); err != nil {
		return err
	}
	if o.Sampled() {
		return o.SampleOptions().Validate(o.RunInstructions)
	}
	return nil
}

// validateCMP rejects impossible CMP options before a run executes.
func (o Options) validateCMP() error {
	if o.Cores < 0 {
		return fmt.Errorf("tlc: %d cores; need at least 1", o.Cores)
	}
	if o.Cores > 64 {
		return fmt.Errorf("tlc: %d cores exceeds the 64-core directory limit", o.Cores)
	}
	if err := o.Sharing.Validate(); err != nil {
		return err
	}
	return nil
}

// CheckpointStore holds warm-state checkpoints: an in-process LRU with an
// optional on-disk tier. See internal/snapshot for the determinism
// contract.
type CheckpointStore = snapshot.Store

// NewCheckpointStore builds a checkpoint store holding up to capacity
// checkpoints in memory (a default when capacity <= 0). A non-empty dir
// adds a persistent tier shared across processes (the CLIs' -ckptdir).
func NewCheckpointStore(capacity int, dir string) *CheckpointStore {
	return snapshot.NewStore(capacity, dir)
}

// PhaseProfileStore caches phase profiles — one workload's phase
// clustering, keyed by workload content (not design), so one profile
// serves every L2 design — in an in-process LRU with an optional on-disk
// tier (atomic writes, corrupt-degrades-to-recompute).
type PhaseProfileStore = snapshot.ProfileStore

// NewPhaseProfileStore builds a profile store holding up to capacity
// profiles in memory (a default when capacity <= 0). A non-empty dir adds
// a persistent tier shared across processes (the CLIs' -ckptdir).
func NewPhaseProfileStore(capacity int, dir string) *PhaseProfileStore {
	return snapshot.NewProfileStore(capacity, dir)
}

// DefaultOptions returns the standard scaled run: automatic functional
// warm-up (4-24 M instructions, scaled to the benchmark's hot set) and 2 M
// timed instructions (the paper runs 0.5-1 B warm and 500 M timed on
// Simics; Section 4 of DESIGN.md discusses the scaling).
func DefaultOptions() Options {
	return Options{RunInstructions: 2_000_000, Seed: 1}
}

// Result is the outcome of one (design, benchmark) run.
type Result struct {
	Design    Design
	Benchmark string

	// Core-level results.
	Instructions uint64
	Cycles       uint64
	IPC          float64

	// L2 request statistics (Table 6).
	L2Loads         uint64
	L2Stores        uint64
	MissesPer1K     float64
	MeanLookup      float64
	PredictablePct  float64
	BanksPerRequest float64

	// Interconnect results.
	LinkUtilization float64 // TLC designs only (Figure 7)
	NetworkPowerW   float64 // Table 9

	// DNUCA-specific results (Table 6).
	CloseHitPct       float64
	PromotesPerInsert float64

	// Reliability results (TLC designs with a nonzero BitErrorRate).
	ECCCorrections uint64
	ECCRetries     uint64
}

// Build instantiates a design wired into the instrumentation spine. It is
// the one design constructor: every run, the trace replayer (tlctrace
// -replay) and the Table 2 ranges build designs here. Every design
// registers its layer counters at construction; Build adds the
// cross-layer roll-ups that live above the design packages (network power
// imports both cache families, so its gauge registers here) and the
// optional DRAM substrate. All reporting below reads the returned
// registry — there is exactly one way to add a metric.
func Build(d Design, opt Options) l2.Instrumented {
	sys := config.DefaultSystem()
	var memory *dram.Memory
	if opt.UseDRAM {
		memory = dram.New(dram.Default())
	}
	var inst l2.Instrumented
	switch d {
	case config.SNUCA2:
		s := nuca.NewSNUCA(sys.MemoryLatency)
		if memory != nil {
			s.SetMemory(memory)
		}
		s.Metrics().Gauge("power.network_w", func(now sim.Time) float64 {
			return power.MeshDynamicPowerW(s.Mesh(), now)
		})
		inst = s
	case config.DNUCA:
		dn := nuca.NewDNUCA(sys.MemoryLatency)
		if memory != nil {
			dn.SetMemory(memory)
		}
		dn.Metrics().Gauge("power.network_w", func(now sim.Time) float64 {
			return power.MeshDynamicPowerW(dn.Mesh(), now)
		})
		inst = dn
	default:
		tc := tlcache.New(d, sys.MemoryLatency)
		if memory != nil {
			tc.SetMemory(memory)
		}
		if opt.BitErrorRate > 0 {
			tc.SetNoise(opt.BitErrorRate)
		}
		tc.Metrics().Gauge("power.network_w", func(now sim.Time) float64 {
			return power.TLCDynamicPowerW(tc, now)
		})
		inst = tc
	}
	if memory != nil {
		memory.RegisterMetrics(inst.Metrics())
	}
	return inst
}

// Run simulates one benchmark on one design. With SampleIntervals set it
// runs in sampled mode (RunSampled exposes the confidence intervals the
// plain Result drops).
func Run(d Design, benchmark string, opt Options) (Result, error) {
	spec, ok := workload.SpecByName(benchmark)
	if !ok {
		return Result{}, fmt.Errorf("tlc: unknown benchmark %q", benchmark)
	}
	return RunSpec(d, spec, opt)
}

// checkpointFormat versions the warm-state layout. Bump it whenever the
// captured state's shape or semantics change, so stale on-disk checkpoints
// miss instead of restoring garbage.
// v5: the fidelity tier left the keys, so every configHash changed; v4: one
// envelope for every core count; v3: fidelity tier in keys; v2: CMP axis in
// keys.
const checkpointFormat = 5

// keyHasher folds checkpoint-key fields into an FNV hash with explicit,
// typed encoding: every value is written as a fixed-width little-endian
// record (strings and slices length-prefixed), so the key depends only on
// the values deliberately encoded — unlike %+v formatting, whose output
// silently shifts when fields are added, reordered, or retyped, aliasing
// distinct configurations or (worse) keeping stale keys valid.
type keyHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newKeyHasher() *keyHasher { return &keyHasher{h: fnv.New64a()} }

func (k *keyHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(k.buf[:], v)
	k.h.Write(k.buf[:])
}

func (k *keyHasher) i(v int)      { k.u64(uint64(int64(v))) }
func (k *keyHasher) t(v sim.Time) { k.u64(uint64(v)) }
func (k *keyHasher) f(v float64)  { k.u64(math.Float64bits(v)) }
func (k *keyHasher) b(v bool) {
	if v {
		k.u64(1)
	} else {
		k.u64(0)
	}
}

func (k *keyHasher) str(s string) {
	k.u64(uint64(len(s)))
	k.h.Write([]byte(s))
}

func (k *keyHasher) ints(v []int) {
	k.u64(uint64(len(v)))
	for _, x := range v {
		k.i(x)
	}
}

func (k *keyHasher) times(v []sim.Time) {
	k.u64(uint64(len(v)))
	for _, x := range v {
		k.t(x)
	}
}

func (k *keyHasher) sum() string { return fmt.Sprintf("%016x", k.h.Sum64()) }

// system folds every Table 3 machine parameter.
func (k *keyHasher) system(s config.System) {
	k.i(s.L1Bytes)
	k.i(s.L1Assoc)
	k.t(s.L1Latency)
	k.i(s.L2Bytes)
	k.i(s.L2Assoc)
	k.t(s.MemoryLatency)
	k.i(s.MaxOutstanding)
	k.i(s.ROBEntries)
	k.i(s.SchedulerEntries)
	k.i(s.FetchWidth)
	k.i(s.PipelineStages)
}

// spec folds every workload parameter.
func (k *keyHasher) spec(s workload.Spec) {
	k.str(s.Name)
	k.f(s.FootprintMB)
	k.f(s.L1MB)
	k.f(s.L1Frac)
	k.f(s.HotMB)
	k.f(s.HotFrac)
	k.i(s.HotSkew)
	k.f(s.StreamFrac)
	k.i(s.StreamRepeat)
	k.i(s.ColdSkew)
	k.f(s.ColdWindowMB)
	k.f(s.ColdTurnover)
	k.f(s.RecentFrac)
	k.f(s.StoreFrac)
	k.f(s.MemFrac)
	k.f(s.DepFrac)
	k.f(s.SerialFrac)
	k.i(s.MispredictEvery)
}

// mesh folds a NUCA floorplan.
func (k *keyHasher) mesh(c noc.Config) {
	k.i(c.Cols)
	k.i(c.Rows)
	k.ints(c.ColDist)
	k.t(c.SpineSegLat)
	k.times(c.VertReqLat)
	k.times(c.VertRespLat)
	k.t(c.IngressLat)
	k.i(c.FlitBytes)
	k.f(c.SpineSegMM)
	k.f(c.VertSegMM)
}

// nucaParams folds a NUCA design's parameters.
func (k *keyHasher) nucaParams(p config.NUCAParams) {
	k.i(int(p.Design))
	k.i(p.Banks)
	k.i(p.BankBytes)
	k.i(p.BankAssoc)
	k.t(p.BankAccess)
	k.mesh(p.Mesh)
	k.i(p.BankSets)
	k.t(p.PTagLatency)
}

// tlcParams folds a TLC-family design's parameters.
func (k *keyHasher) tlcParams(p config.TLCParams) {
	k.i(int(p.Design))
	k.i(p.Banks)
	k.i(p.BanksPerBlock)
	k.i(p.BankBytes)
	k.t(p.BankAccess)
	k.i(p.LinesPerPair)
	k.i(p.DownBits)
	k.i(p.UpBits)
	k.t(p.TLCycles)
	k.t(p.CtrlWireMax)
	k.b(p.PartialTagInBank)
}

// sharing folds a CMP sharing spec.
func (k *keyHasher) sharing(s SharingSpec) {
	k.str(s.Pattern)
	k.f(s.SharedMB)
	k.f(s.SharedFrac)
}

// cmp folds the CMP axis of a configuration.
func (k *keyHasher) cmp(c CMPConfig) {
	k.i(c.Cores)
	k.str(c.Protocol)
	k.sharing(c.Sharing)
}

// configHash keys checkpoints by everything that shapes post-warm machine
// state: the design and its parameters, the system (L1 geometry), the
// workload spec, and the CMP axis (core count, protocol, sharing).
// Over-keying (including parameters warm-up ignores) only costs spurious
// misses; under-keying would silently restore wrong state. Every parameter is folded field by field with typed
// encoding (keyHasher); TestConfigHashCoversEveryParameter asserts that
// perturbing any single field changes the key.
func configHash(d Design, spec workload.Spec, cmp CMPConfig) string {
	return configHashOf(d, config.DefaultSystem(), spec, nucaParamsFor(d), tlcParamsFor(d), cmp)
}

// nucaParamsFor and tlcParamsFor return the design's parameter struct, or a
// zero value for the other family — keeping configHashOf total so the
// perturbation test can drive it directly.
func nucaParamsFor(d Design) config.NUCAParams {
	switch d {
	case config.SNUCA2, config.DNUCA:
		return config.NUCAFor(d)
	default:
		return config.NUCAParams{}
	}
}

func tlcParamsFor(d Design) config.TLCParams {
	switch d {
	case config.SNUCA2, config.DNUCA:
		return config.TLCParams{}
	default:
		return config.TLCFor(d)
	}
}

// configHashOf is the explicit-encoding core of configHash, parameterized
// for testing.
func configHashOf(d Design, sys config.System, spec workload.Spec, np config.NUCAParams, tp config.TLCParams, cmp CMPConfig) string {
	k := newKeyHasher()
	k.u64(checkpointFormat)
	k.i(int(d))
	k.system(sys)
	k.spec(spec)
	k.nucaParams(np)
	k.tlcParams(tp)
	k.cmp(cmp)
	return k.sum()
}

// ContentKey hashes every Options field that shapes a run's simulated
// outcome — warm/timed lengths, seeds, the memory model, noise injection,
// and the sampling plan — with the same typed field-by-field encoding the
// checkpoint key uses. Fields that change how a run executes but not what
// it computes (Checkpoints, OnMetrics, Cancel) are deliberately
// excluded: a checkpointed, sampled-observer, or cancellable run with equal
// content fields is bit-identical to a plain one.
func (o Options) ContentKey() string {
	k := newKeyHasher()
	k.u64(o.WarmInstructions)
	k.u64(o.RunInstructions)
	k.u64(uint64(o.Seed))
	k.b(o.UseDRAM)
	k.f(o.BitErrorRate)
	k.u64(uint64(o.WarmSeed))
	k.i(o.SampleIntervals)
	k.u64(o.SampleLength)
	k.i(o.PhaseWindows)
	k.i(o.PhaseClusters)
	k.cmp(o.cmpConfig())
	return k.sum()
}

// RunKey is the content address of one (design, benchmark, Options) run:
// equal keys provably name bit-identical results, so a result cache keyed
// by it (the tlcd service's) can serve hits without re-simulating. It folds
// the full design/system/workload configuration (configHash) with the
// benchmark name and the Options content fields. Unknown benchmark names
// hash fine (the spec folds as its zero value plus the name), erroring only
// when the run actually executes.
func RunKey(d Design, benchmark string, opt Options) string {
	spec, _ := workload.SpecByName(benchmark)
	k := newKeyHasher()
	k.str(configHash(d, spec, opt.cmpConfig()))
	k.str(benchmark)
	k.str(opt.ContentKey())
	return k.sum()
}

// SummarizeSeeds folds per-seed observations into SeedStats in slice order,
// so a seed sweep's statistics are the same to the bit whether its runs
// executed in process or on a tlcd server (tlcsweep -remote).
func SummarizeSeeds(vals []float64) SeedStats {
	st := SeedStats{Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		st.Mean += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean /= float64(len(vals))
	return st
}

// assemble fills a Result entirely from registry reads — the single
// reporting path shared by every design. Counters absent from a design's
// registry (DNUCA's close hits on SNUCA, ECC on the mesh designs) read
// zero, exactly the zero value the flat Result previously left untouched.
func assemble(d Design, benchmark string, reg *metrics.Registry, instructions uint64, cycles sim.Time) Result {
	loads := reg.CounterValue("l2.loads")
	stores := reg.CounterValue("l2.stores")
	return Result{
		Design:          d,
		Benchmark:       benchmark,
		L2Loads:         loads,
		L2Stores:        stores,
		MissesPer1K:     stats.PerKilo(reg.CounterValue("l2.misses"), instructions),
		MeanLookup:      reg.HistogramMean("l2.lookup"),
		PredictablePct:  100 * stats.Ratio(reg.CounterValue("l2.predictable_lookups"), loads),
		BanksPerRequest: stats.Ratio(reg.CounterValue("l2.banks_touched"), loads+stores),
		NetworkPowerW:   reg.GaugeValue("power.network_w", cycles),
		LinkUtilization: reg.GaugeValue("tl.link_utilization", cycles),
		CloseHitPct:     reg.GaugeValue("l2.close_hit_pct", cycles),

		PromotesPerInsert: reg.GaugeValue("l2.promotes_per_insert", cycles),
		ECCCorrections:    reg.CounterValue("ecc.corrections"),
		ECCRetries:        reg.CounterValue("ecc.retries"),
	}
}

// emitMetrics fires the OnMetrics callback for a finished run.
func emitMetrics(d Design, benchmark string, inst l2.Instrumented, cycles sim.Time, opt Options) {
	if opt.OnMetrics == nil {
		return
	}
	opt.OnMetrics(MetricsEvent{
		Design:    d,
		Benchmark: benchmark,
		Cycles:    uint64(cycles),
		Snapshot:  inst.Metrics().Snapshot(cycles),
	})
}

// SampledResult is a Result estimated by sampled execution, plus the 95%
// confidence half-widths interval-to-interval variation puts on the
// estimated metrics. A CI of 0 with few intervals means "unknown", not
// "exact"; use 8+ intervals for honest intervals.
type SampledResult struct {
	Result
	// CyclesCI is the 95% confidence half-width on Cycles.
	CyclesCI float64
	// MeanLookupCI is the 95% confidence half-width on MeanLookup.
	MeanLookupCI float64
	// MissesPer1KCI is the 95% confidence half-width on MissesPer1K.
	MissesPer1KCI float64
	// Intervals and DetailedInstructions report the sampling shape used.
	Intervals            int
	DetailedInstructions uint64
	// Metrics extends the confidence intervals to every registered
	// counter: per-interval deltas of each registry counter, normalized to
	// events per 1K detailed instructions, aggregated across intervals.
	// Sorted by name.
	Metrics []MetricCI
}

// MetricCI is the sampled-mode estimate for one registry counter.
type MetricCI struct {
	// Name is the counter's registry name.
	Name string
	// MeanPer1K is the mean event rate per thousand detailed instructions
	// across intervals.
	MeanPer1K float64
	// CI95 is the 95% confidence half-width on MeanPer1K.
	CI95 float64
}

// RunSampled simulates one benchmark on one design in sampled mode.
func RunSampled(d Design, benchmark string, opt Options) (SampledResult, error) {
	spec, ok := workload.SpecByName(benchmark)
	if !ok {
		return SampledResult{}, fmt.Errorf("tlc: unknown benchmark %q", benchmark)
	}
	return RunSpecSampled(d, spec, opt)
}

// scaleCount extrapolates a detailed-interval event count to the full run.
func scaleCount(n, total, detailed uint64) uint64 {
	if detailed == 0 {
		return n
	}
	return uint64(float64(n)*float64(total)/float64(detailed) + 0.5)
}

// SeedStats summarizes a metric across seeds: the reproduction's
// seed-robustness check.
type SeedStats struct {
	Mean, Min, Max float64
}

// Spread reports (max-min)/mean, a unitless robustness measure.
func (s SeedStats) Spread() float64 {
	if s.Mean == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Mean
}

// SeedOptions expands opt into a seed sweep's run configurations, one per
// seed in order. Every seed measures from the machine state the first
// seed's warm-up produced: WarmSeed pins the warm stream to seeds[0] and
// only the timed stream reseeds. With one Options.Checkpoints store shared
// across the sweep, each (design, benchmark) pair therefore warms once.
// Conclusions that survive the sweep (SummarizeSeeds over the per-seed
// results, in seed order) are workload-structure effects, not artifacts of
// one random stream.
func SeedOptions(opt Options, seeds []int64) []Options {
	out := make([]Options, len(seeds))
	for i, seed := range seeds {
		out[i] = opt
		out[i].WarmSeed = seeds[0]
		out[i].Seed = seed
	}
	return out
}

// AreaBreakdown is one Table 7 row.
type AreaBreakdown = area.Breakdown

// Area reports the substrate-area breakdown of a design (Table 7).
func Area(d Design) AreaBreakdown { return area.DesignArea(d) }

// NetworkTransistors is one Table 8 row.
type NetworkTransistors = area.NetworkTransistors

// Transistors reports the communication-network transistor demand of a
// design (Table 8).
func Transistors(d Design) NetworkTransistors { return area.DesignTransistors(d) }

// LineReport is the physical analysis of one transmission-line geometry.
type LineReport = tline.Signal

// AnalyzeLines runs the Table 1 geometries through the physical model:
// extraction, flight time, and signal-integrity acceptance.
func AnalyzeLines() []LineReport {
	var out []LineReport
	for _, g := range tline.Table1() {
		out = append(out, tline.Analyze(g))
	}
	return out
}

// UncontendedRange reports a design's Table 2 uncontended-latency range.
func UncontendedRange(d Design) (min, max uint64) {
	a, b := Build(d, Options{}).(interface{ NominalRange() (sim.Time, sim.Time) }).NominalRange()
	return uint64(a), uint64(b)
}

// TotalLines reports a TLC design's transmission-line count (Table 2);
// zero for the NUCA designs.
func TotalLines(d Design) int {
	switch d {
	case config.SNUCA2, config.DNUCA:
		return 0
	default:
		return config.TLCFor(d).TotalLines()
	}
}
