package tlc

// The run pipeline. Every run, one core or many, takes the same four
// steps: build a machine of N >= 1 cores over the design under test
// (internal/machine), restore it from a checkpoint or warm it, time it
// in full (Machine.Run) or by a sampling plan (sample.Run over a uniform
// or phase sample.Plan), and assemble the Result from the design's metric
// registry. A 1-core machine has no Shared layer: its core drives the
// design directly and its registry holds only the unprefixed cpu.* and
// workload.* names, so single-core results come out of the same code as
// CMP results. A one-core sampled run takes the same steps as a lane
// group of one design (lanes.go), whose sample.Run loop drives one back
// end there and K in a group; a CMP sampled run's one-lane target is its
// Machine.
//
// The core count changes the pipeline in three places, each marked where
// it branches: building the shared layer and naming metrics (newRig),
// lane eligibility (WarmLanes, RunLanes), and the sampled path
// (RunSpecSampled): one core runs as a lane group of one and calibrates
// phase estimates with GREG, a CMP machine runs as the Machine target
// uncalibrated.

import (
	"errors"
	"fmt"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/machine"
	"tlc/internal/metrics"
	"tlc/internal/sample"
	"tlc/internal/snapshot"
	"tlc/internal/stats"
	"tlc/internal/workload"
)

// stream is one core's workload: the benchmark's *workload.Generator on a
// 1-core machine, a *workload.CMPStream per core on a CMP.
type stream interface {
	cpu.Stream
	PreWarm(c l2.Cache)
	Reseed(seed int64)
	ResetCounters()
}

// streamState captures a stream's position in checkpoint form; a 1-core
// generator's position rides in CMPState.Gen.
func streamState(s stream) workload.CMPState {
	if cs, ok := s.(*workload.CMPStream); ok {
		return cs.State()
	}
	return workload.CMPState{Gen: s.(*workload.Generator).State()}
}

// setStreamState restores a position captured by streamState.
func setStreamState(s stream, st workload.CMPState) {
	if cs, ok := s.(*workload.CMPStream); ok {
		cs.SetState(st)
		return
	}
	s.(*workload.Generator).SetState(st.Gen)
}

// rig is one run's machine: the design under test, its cores and their
// streams, and the Machine that schedules them.
type rig struct {
	inst    l2.Instrumented
	m       *machine.Machine
	cores   []*cpu.Core
	streams []stream
}

// newRig builds an N-core machine over a fresh instance of the design,
// with every stream seeded for warm-up and every layer's counters
// registered in the design's registry, which becomes the run's.
func newRig(d Design, spec workload.Spec, warmSeed int64, opt Options) *rig {
	sys := config.DefaultSystem()
	n := opt.cores()
	r := &rig{inst: Build(d, opt), cores: make([]*cpu.Core, n), streams: make([]stream, n)}
	reg := r.inst.Metrics()
	ss := make([]cpu.Stream, n)
	var shd *machine.Shared
	// Core-count branch: one core drives the design directly under the plain
	// cpu.*/workload.* names. Two or more get the shared layer (ports,
	// arbiter, MSI directory), per-core "core.<i>." names, the summed plain
	// names, and the coh.*/cmp.arb.*/noc.port.* counters.
	if n == 1 {
		gen := workload.New(spec, warmSeed)
		r.cores[0] = cpu.New(sys, r.inst)
		registerOneCore(reg, r.cores[0].Backend(), gen)
		r.streams[0], ss[0] = gen, gen
	} else {
		shd = machine.NewShared(r.inst, n)
		gens := make([]*workload.CMPStream, n)
		for i := range gens {
			gens[i] = workload.NewCMPStream(spec, warmSeed, i, opt.Sharing)
			r.cores[i] = cpu.New(sys, shd.Port(i))
			prefix := fmt.Sprintf("core.%d.", i)
			r.cores[i].RegisterMetricsPrefixed(reg, prefix)
			gens[i].RegisterMetricsPrefixed(reg, prefix)
			r.streams[i], ss[i] = gens[i], gens[i]
		}
		shd.Attach(r.cores)
		cpu.RegisterMetricsSum(reg, r.cores)
		workload.RegisterMetricsSum(reg, gens)
		shd.RegisterMetrics(reg)
	}
	for _, c := range r.cores {
		c.SetCancel(opt.Cancel)
	}
	r.m = machine.New(r.cores, ss, shd)
	return r
}

// registerOneCore publishes a one-core run's counters in reg under the
// plain names: the timed back end's cpu.* set, its front end's L1 counts
// included, and the stream's workload.* set. A rig's one core and every
// timed lane (RunLanes) register through it, so a lane's registry carries
// the names a restored Run's does.
func registerOneCore(reg *metrics.Registry, be *cpu.Backend, gen *workload.Generator) {
	be.RegisterMetricsPrefixed(reg, "")
	gen.RegisterMetrics(reg)
}

// markLaneRestored registers the provenance marker of a run whose warm
// state came from a lane-parallel pass. Only such runs carry it, so scalar
// and lane artifacts diff clean on shared names.
func markLaneRestored(reg *metrics.Registry) {
	reg.CounterFunc("sim.lanes.restored", func() uint64 { return 1 })
}

// startTimed positions a warmed stream for the timed interval. The
// interval measures its own stream, decorrelated from the (shared) warm-up
// stream when the seeds differ, and the stream's counters, like every
// other metric, cover only the interval — whether warm-up ran or a
// checkpoint skipped it.
func startTimed(s stream, warmSeed int64, opt Options) {
	if opt.Seed != warmSeed {
		s.Reseed(opt.Seed)
	}
	s.ResetCounters()
}

// errCheckpointShape rejects a checkpoint whose width does not match the
// machine, or a design that cannot snapshot.
var errCheckpointShape = errors.New("tlc: checkpoint does not fit this machine")

// restoreDesign checks that ckp fits a machine of n cores — one core state
// and one stream state per core, and no coherence directory on one core —
// and restores the design's half of it into inst. Any error leaves inst
// partly restored; the caller must discard it.
func restoreDesign(inst l2.Instrumented, ckp snapshot.Checkpoint, n int) error {
	snap, ok := inst.(l2.Snapshotter)
	if !ok || len(ckp.Cores) != n || len(ckp.Gens) != n || (n == 1 && len(ckp.Dir) != 0) {
		return errCheckpointShape
	}
	return snap.RestoreState(ckp.L2)
}

// restore applies a stored checkpoint to a freshly built rig. Any error
// leaves the rig partly restored; the caller must discard it.
func (r *rig) restore(ckp snapshot.Checkpoint) error {
	if err := restoreDesign(r.inst, ckp, len(r.cores)); err != nil {
		return err
	}
	for i, c := range r.cores {
		if err := c.Restore(ckp.Cores[i]); err != nil {
			return err
		}
	}
	for i, s := range r.streams {
		setStreamState(s, ckp.Gens[i])
	}
	return r.m.RestoreDirectory(ckp.Dir)
}

// checkpoint captures the rig's post-warm state.
func (r *rig) checkpoint(snap l2.Snapshotter) snapshot.Checkpoint {
	ckp := snapshot.Checkpoint{L2: snap.SnapshotState(), Dir: r.m.DirectorySnapshot()}
	for i, c := range r.cores {
		ckp.Cores = append(ckp.Cores, c.Snapshot())
		ckp.Gens = append(ckp.Gens, streamState(r.streams[i]))
	}
	return ckp
}

// prepare builds the run's machine and brings it to measured-interval
// start: post-warm caches and coherence directory, every stream positioned
// and seeded for the timed run, and the stream counters covering only what
// follows. Restore is all or nothing: a checkpoint any layer rejects (a
// stale or corrupt disk entry, another machine width) is a miss, and the
// partly restored machine is dropped for a freshly built one that
// re-executes the warm-up and stores its result. A non-nil error means
// opt.Cancel aborted the warm-up; the half-warm machine is discarded,
// never checkpointed.
func prepare(d Design, spec workload.Spec, opt Options) (*rig, error) {
	warmSeed, warm := warmPlan(spec, opt)
	key := snapshot.Key{Config: configHash(d, spec, opt.cmpConfig()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
	var r *rig
	if opt.Checkpoints != nil {
		if ckp, ok := opt.Checkpoints.Get(key); ok {
			r = newRig(d, spec, warmSeed, opt)
			if r.restore(ckp) != nil {
				r = nil
			} else if ckp.Lanes {
				markLaneRestored(r.inst.Metrics())
			}
		}
	}
	if r == nil {
		r = newRig(d, spec, warmSeed, opt)
		// Pre-warm installs the whole footprint so capacity state matches
		// a long-running process, then the trace warm-up establishes
		// recency and migration steady state.
		for _, s := range r.streams {
			s.PreWarm(r.inst)
		}
		r.m.Warm(warm)
		if err := r.m.CancelErr(); err != nil {
			return nil, fmt.Errorf("tlc: %v %s warm-up cancelled: %w", d, spec.Name, err)
		}
		if snap, ok := r.inst.(l2.Snapshotter); ok && opt.Checkpoints != nil {
			opt.Checkpoints.Put(key, r.checkpoint(snap))
		}
	}
	for _, s := range r.streams {
		startTimed(s, warmSeed, opt)
	}
	return r, nil
}

// RunSpec simulates a custom workload spec on one design. The machine
// times RunInstructions per core; the Result reports machine-wide totals —
// Instructions summed over cores, Cycles the machine finish time (the
// latest core's clock), IPC their ratio.
func RunSpec(d Design, spec workload.Spec, opt Options) (Result, error) {
	if err := opt.validateCMP(); err != nil {
		return Result{}, err
	}
	if opt.Sampled() {
		sres, err := RunSpecSampled(d, spec, opt)
		return sres.Result, err
	}
	r, err := prepare(d, spec, opt)
	if err != nil {
		return Result{}, err
	}
	cr := r.m.Run(opt.RunInstructions)
	if err := r.m.CancelErr(); err != nil {
		return Result{}, fmt.Errorf("tlc: %v %s run cancelled: %w", d, spec.Name, err)
	}
	return finish(d, spec.Name, r.inst, cr, opt), nil
}

// finish assembles a full-detail run's Result from its registry and the
// timed result, and fires OnMetrics.
func finish(d Design, bench string, inst l2.Instrumented, cr cpu.Result, opt Options) Result {
	res := assemble(d, bench, inst.Metrics(), cr.Instructions, cr.Cycles)
	res.Instructions = cr.Instructions
	res.Cycles = uint64(cr.Cycles)
	res.IPC = cr.IPC()
	emitMetrics(d, bench, inst, cr.Cycles, opt)
	return res
}

// RunSpecSampled simulates a custom workload spec on one design in sampled
// mode, standing in for a full RunInstructions-long detailed run. The run
// follows a sample.Plan: the uniform plan times SampleIntervals intervals
// of SampleLength instructions, interleaved with functional
// fast-forwarding; the phase plan profiles (or fetches) the phase
// clustering and times one representative window per cluster. On one core
// the run is a lane group of one (runLanes), and a phase run's cycle
// estimate is then calibrated against exact covariate totals.
// RunInstructions and SampleLength count instructions per core.
func RunSpecSampled(d Design, spec workload.Spec, opt Options) (SampledResult, error) {
	sopt := opt.SampleOptions()
	if err := sopt.Validate(opt.RunInstructions); err != nil {
		return SampledResult{}, err
	}
	if err := opt.validateCMP(); err != nil {
		return SampledResult{}, err
	}
	// Core-count branch: one core shares the lanes' path and calibrates
	// phase estimates; a CMP machine is its own one-lane target and does
	// not calibrate: its feature vectors sum counts across cores while
	// window weights stay per-core, so the L1 covariate total would be off
	// by N.
	if opt.cores() == 1 {
		res, _, err := runLanes([]Design{d}, spec, opt)
		if err != nil {
			return SampledResult{}, err
		}
		return res[0], nil
	}
	r, err := prepare(d, spec, opt)
	if err != nil {
		return SampledResult{}, err
	}
	plan, prof, cached, err := samplePlan(spec, opt, r.streams)
	if err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s phase profile cancelled: %w", d, spec.Name, err)
	}
	reg := r.inst.Metrics()
	if sopt.Phase() {
		registerPhaseMetrics(reg, prof, cached)
	}
	obs, observe := newObserver(reg, r.inst)
	est := sample.Run(r.m, plan, func(_ int, iv sample.Interval) { observe(iv) })[0]
	if err := r.m.CancelErr(); err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s run cancelled: %w", d, spec.Name, err)
	}
	return assembleSampled(d, spec, opt, r.inst, uint64(len(r.cores)), est, obs.fold(plan.Weights)), nil
}

// samplePlan resolves a sampled run's plan over its prepared streams: the
// phase profile's — fetched from opt.PhaseProfiles, or computed and
// stored, with cached reporting which — or the uniform one, with a zero
// profile. A non-nil error means opt.Cancel aborted the profiling pass.
func samplePlan(spec workload.Spec, opt Options, streams []stream) (plan sample.Plan, prof sample.Profile, cached bool, err error) {
	sopt := opt.SampleOptions()
	if !sopt.Phase() {
		plan, _ = sample.UniformPlan(opt.RunInstructions, sopt.Intervals, sopt.Length) // validated by the caller
		return plan, sample.Profile{}, false, nil
	}
	prof, cached, err = phaseProfileFor(spec, opt, sopt, func(key string) (sample.Profile, error) {
		return computePhaseProfile(key, streams, opt)
	})
	if err != nil {
		return sample.Plan{}, sample.Profile{}, false, err
	}
	return prof.Plan(), prof, cached, nil
}

// observer records, per detailed interval, the deltas of the L2 lookup
// histogram, the L2 miss counter and every registry counter.
type observer struct {
	names []string
	spans []span
}

// span is one detailed interval's record.
type span struct {
	stratum int
	instr   uint64
	cpi     float64
	// lookup is the interval's mean L2 lookup latency, valid when
	// hasLookup (an interval may make no lookups).
	lookup    float64
	hasLookup bool
	// l2m and mispr are the interval's L2-miss and fetch-mispredict counts:
	// the phase calibration's covariates.
	l2m, mispr float64
	// rates holds every registry counter's events per 1K instructions, in
	// names order.
	rates []float64
}

// newObserver snapshots the registry's counter names and baselines.
func newObserver(reg *metrics.Registry, inst l2.Instrumented) (*observer, func(sample.Interval)) {
	st := inst.L2Stats()
	names := reg.CounterNames()
	o := &observer{names: names}
	misprIdx := -1
	for i, name := range names {
		if name == "cpu.fetch.mispredicts" {
			misprIdx = i
		}
	}
	var prevLookupSum, prevLookupCount, prevMisses uint64
	prevVals := reg.AppendCounterValues(make([]uint64, 0, len(names)), names)
	curVals := make([]uint64, 0, len(names))
	return o, func(iv sample.Interval) {
		dSum := st.Lookup.Sum() - prevLookupSum
		dCount := st.Lookup.Count() - prevLookupCount
		dMiss := st.Misses.Value() - prevMisses
		prevLookupSum, prevLookupCount, prevMisses = st.Lookup.Sum(), st.Lookup.Count(), st.Misses.Value()
		sp := span{
			stratum: iv.Stratum,
			instr:   iv.Result.Instructions,
			cpi:     float64(iv.Cycles) / float64(iv.Result.Instructions),
			l2m:     float64(dMiss),
			rates:   make([]float64, len(names)),
		}
		if dCount > 0 {
			sp.lookup, sp.hasLookup = float64(dSum)/float64(dCount), true
		}
		curVals = reg.AppendCounterValues(curVals[:0], names)
		for i, v := range curVals {
			sp.rates[i] = 1000 * float64(v-prevVals[i]) / float64(iv.Result.Instructions)
		}
		if misprIdx >= 0 {
			sp.mispr = float64(curVals[misprIdx] - prevVals[misprIdx])
		}
		o.spans = append(o.spans, sp)
		prevVals, curVals = curVals, prevVals
	}
}

// folded holds the sampled-run estimates, each interval weighted by
// W_h / n_h: its stratum's instruction weight over the number of intervals
// the stratum timed. A phase cluster's one representative carries the
// cluster's weight, so small phases do not count as much as big ones;
// uniform intervals weigh equally.
type folded struct {
	names            []string
	strata           int
	lookup, missRate stats.Weighted
	counters         []stats.Weighted
}

// fold aggregates the records in interval order against the plan's
// stratum weights.
func (o *observer) fold(weights []uint64) folded {
	n := make([]int, len(weights))
	for _, sp := range o.spans {
		n[sp.stratum]++
	}
	f := folded{names: o.names, strata: len(weights), counters: make([]stats.Weighted, len(o.names))}
	for _, sp := range o.spans {
		w := float64(weights[sp.stratum]) / float64(n[sp.stratum])
		if sp.hasLookup {
			f.lookup.Observe(sp.lookup, w)
		}
		f.missRate.Observe(1000*sp.l2m/float64(sp.instr), w)
		for i, r := range sp.rates {
			f.counters[i].Observe(r, w)
		}
	}
	return f
}

// counterTotal estimates a counter's full-run event count from its
// weighted per-1K rate (per-1K of total instructions across cores); a
// counter missing from the registry falls back to plain scaling of the
// detailed-window total.
func (f folded) counterTotal(name string, total, raw, detailed uint64) uint64 {
	for i, n := range f.names {
		if n == name {
			return uint64(f.counters[i].Mean()*float64(total)/1000 + 0.5)
		}
	}
	return scaleCount(raw, total, detailed)
}

// assembleSampled turns a sampled estimate into a SampledResult. The L2
// counters cover only the detailed instructions, so rates are computed
// over that denominator. Power and utilization integrate over the detailed
// window: the clock only advances during detailed intervals, so FinalClock
// is that window's span. A one-stratum plan reports the pooled
// detailed-window rates and scales the absolute load/store counts to the
// full run like the cycle estimate. A plan with several strata takes the
// rate metrics — misses/1K, mean lookup, the load/store totals — from the
// stratum-weighted fold instead, because registry aggregates over the
// detailed window would over-represent small strata.
func assembleSampled(d Design, spec workload.Spec, opt Options, inst l2.Instrumented, cores uint64, est sample.Estimate, f folded) SampledResult {
	totalInstr := opt.RunInstructions * cores
	detailedTotal := est.Detailed * cores
	res := assemble(d, spec.Name, inst.Metrics(), detailedTotal, est.FinalClock)
	res.Instructions = totalInstr
	res.Cycles = uint64(est.Cycles + 0.5)
	if f.strata > 1 {
		res.MissesPer1K = f.missRate.Mean()
		if f.lookup.N() > 0 {
			res.MeanLookup = f.lookup.Mean()
		}
		res.L2Loads = f.counterTotal("l2.loads", totalInstr, res.L2Loads, detailedTotal)
		res.L2Stores = f.counterTotal("l2.stores", totalInstr, res.L2Stores, detailedTotal)
	} else {
		res.L2Loads = scaleCount(res.L2Loads, totalInstr, detailedTotal)
		res.L2Stores = scaleCount(res.L2Stores, totalInstr, detailedTotal)
	}
	if est.Cycles > 0 {
		res.IPC = float64(totalInstr) / est.Cycles
	}
	mcis := make([]MetricCI, len(f.names))
	for i, n := range f.names {
		mcis[i] = MetricCI{Name: n, MeanPer1K: f.counters[i].Mean(), CI95: f.counters[i].CI95()}
	}
	emitMetrics(d, spec.Name, inst, est.FinalClock, opt)
	return SampledResult{
		Result:               res,
		CyclesCI:             est.CyclesCI,
		MeanLookupCI:         f.lookup.CI95(),
		MissesPer1KCI:        f.missRate.CI95(),
		Intervals:            est.Intervals,
		DetailedInstructions: detailedTotal,
		Metrics:              mcis,
	}
}
