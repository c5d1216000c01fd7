package tlc

// The run pipeline. Every run, one core or many, takes the same four
// steps: build a machine of N >= 1 cores over the design under test
// (internal/machine), restore it from a checkpoint or warm it, time it
// under one strategy — full (Machine.Run), uniform sampling
// (sample.RunTarget) or phase sampling (sample.RunPhased) — and assemble
// the Result from the design's metric registry. A 1-core machine has no
// Shared layer: its core drives the design directly and its registry
// holds only the unprefixed cpu.* and workload.* names, so single-core
// results come out of the same code as CMP results.
//
// The core count changes the pipeline in three places, each marked where
// it branches: building the shared layer and naming metrics (newRig),
// lane-warm eligibility (WarmLanes) and GREG calibration (RunSpecSampled).

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
	r := &rig{inst: build(d, opt), cores: make([]*cpu.Core, n), streams: make([]stream, n)}
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
		r.cores[0].RegisterMetrics(reg)
		gen.RegisterMetrics(reg)
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

// errCheckpointShape rejects a checkpoint whose width does not match the
// machine, or a design that cannot snapshot.
var errCheckpointShape = errors.New("tlc: checkpoint does not fit this machine")

// restore applies a stored checkpoint to a freshly built rig. Any error
// leaves the rig partly restored; the caller must discard it.
func (r *rig) restore(ckp snapshot.Checkpoint) error {
	snap, ok := r.inst.(l2.Snapshotter)
	if !ok || len(ckp.Cores) != len(r.cores) || len(ckp.Gens) != len(r.streams) {
		return errCheckpointShape
	}
	for i, c := range r.cores {
		if err := c.Restore(ckp.Cores[i]); err != nil {
			return err
		}
	}
	if err := snap.RestoreState(ckp.L2); err != nil {
		return err
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
				// Provenance marker: this run skipped warm-up thanks to a
				// lane-parallel pass. Registered only on lane-restored runs,
				// so scalar and lane artifacts diff clean on shared names.
				r.inst.Metrics().CounterFunc("sim.lanes.restored", func() uint64 { return 1 })
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
		if opt.Seed != warmSeed {
			// The timed interval measures its own stream: decorrelate it
			// from the (shared) warm-up stream.
			s.Reseed(opt.Seed)
		}
		// Stream counters, like every other metric, cover only the timed
		// interval — whether warm-up ran or a checkpoint skipped it.
		s.ResetCounters()
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
	if opt.sampledMode() {
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
	res := assemble(d, spec.Name, r.inst.Metrics(), cr.Instructions, cr.Cycles)
	res.Instructions = cr.Instructions
	res.Cycles = uint64(cr.Cycles)
	res.IPC = cr.IPC()
	emitMetrics(d, spec.Name, r.inst, cr.Cycles, opt)
	return res, nil
}

// RunSpecSampled simulates a custom workload spec on one design in sampled
// mode, standing in for a full RunInstructions-long detailed run. Uniform
// mode times SampleIntervals intervals of SampleLength instructions,
// interleaved with functional fast-forwarding. Phase mode profiles (or
// fetches) the phase clustering, times one representative window per
// cluster, and on one core calibrates the cycle estimate against exact
// covariate totals. RunInstructions and SampleLength count instructions
// per core.
func RunSpecSampled(d Design, spec workload.Spec, opt Options) (SampledResult, error) {
	sopt := opt.SampleOptions()
	if err := sopt.Validate(opt.RunInstructions); err != nil {
		return SampledResult{}, err
	}
	if err := opt.validateCMP(); err != nil {
		return SampledResult{}, err
	}
	r, err := prepare(d, spec, opt)
	if err != nil {
		return SampledResult{}, err
	}
	reg := r.inst.Metrics()
	var prof sample.Profile // zero in uniform mode: no weights, no calibration
	if sopt.Phase() {
		var cached bool
		prof, cached = phaseProfileFor(spec, opt, sopt, func(key string) sample.Profile {
			return computePhaseProfile(key, r.streams, opt)
		})
		registerPhaseMetrics(reg, prof, cached)
	}
	obs, observe := newObserver(reg, r.inst)
	// Core-count branch: GREG calibration of phase estimates runs on one
	// core only. CMP feature vectors sum counts across cores while window
	// weights stay per-core, so the L1 covariate total would be off by N.
	calibrated := sopt.Phase() && len(r.cores) == 1
	core := r.cores[0]
	if calibrated {
		// Count functional L2 misses across the timed region's warm
		// stretches; added to the detailed counter they give the region's
		// exact miss total.
		core.SetWarmMissCounting(true)
	}
	warmBase := core.WarmL2Misses()
	var est sample.Estimate
	if sopt.Phase() {
		est = sample.RunPhased(r.m, opt.RunInstructions, sopt, prof, observe)
	} else {
		est = sample.RunTarget(r.m, opt.RunInstructions, sopt, observe)
	}
	if err := r.m.CancelErr(); err != nil {
		return SampledResult{}, fmt.Errorf("tlc: %v %s run cancelled: %w", d, spec.Name, err)
	}
	if calibrated {
		totL2 := float64(reg.CounterValue("l2.misses")) + float64(core.WarmL2Misses()-warmBase)
		calibratePhase(&est, prof, obs, totL2, float64(reg.CounterValue("workload.mispredicts")))
	}
	return assembleSampled(d, spec, opt, r, est, obs.fold(prof.Weights)), nil
}

// observer records, per detailed interval, the deltas of the L2 lookup
// histogram, the L2 miss counter and every registry counter. Uniform and
// phase sampling keep the same records and differ only in how they fold
// them: unweighted, or weighted by cluster instruction count.
type observer struct {
	names []string
	spans []span
}

// span is one detailed interval's record.
type span struct {
	cluster int // interval index; the cluster id in phase mode
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
			cluster: iv.Index,
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

// estimator is one folded estimate: a mean with its 95% confidence
// half-width.
type estimator interface {
	observe(x, w float64)
	N() uint64
	Mean() float64
	CI95() float64
}

type plainEstimator struct{ stats.Sample }

func (e *plainEstimator) observe(x, _ float64) { e.Observe(x) }

type weightedEstimator struct{ stats.Weighted }

func (e *weightedEstimator) observe(x, w float64) { e.Observe(x, w) }

// folded holds the sampled-run estimates.
type folded struct {
	names            []string
	lookup, missRate estimator
	counters         []estimator
}

// fold aggregates the records in interval order: unweighted when weights
// is nil (uniform sampling), else each record weighted by its cluster's
// instruction count, so phase estimates are unbiased even though small
// phases get the same one detailed interval big phases do.
func (o *observer) fold(weights []uint64) folded {
	est := func() estimator {
		if weights == nil {
			return &plainEstimator{}
		}
		return &weightedEstimator{}
	}
	f := folded{names: o.names, lookup: est(), missRate: est(), counters: make([]estimator, len(o.names))}
	for i := range f.counters {
		f.counters[i] = est()
	}
	for _, sp := range o.spans {
		w := 1.0
		if weights != nil {
			w = float64(weights[sp.cluster])
		}
		if sp.hasLookup {
			f.lookup.observe(sp.lookup, w)
		}
		f.missRate.observe(1000*sp.l2m/float64(sp.instr), w)
		for i, r := range sp.rates {
			f.counters[i].observe(r, w)
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
// is that window's span. Uniform mode scales the absolute load/store
// counts to the full run like the cycle estimate. Phase mode takes the
// rate metrics — misses/1K, mean lookup, the load/store totals — from the
// cluster-weighted estimates instead, because registry aggregates over the
// detailed window would over-represent small clusters.
func assembleSampled(d Design, spec workload.Spec, opt Options, r *rig, est sample.Estimate, f folded) SampledResult {
	cores := uint64(len(r.cores))
	estCycles := est.Cycles()
	totalInstr := opt.RunInstructions * cores
	detailedTotal := est.Detailed * cores
	res := assemble(d, spec.Name, r.inst.Metrics(), detailedTotal, est.FinalClock)
	res.Instructions = totalInstr
	res.Cycles = uint64(estCycles + 0.5)
	if est.Phased {
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
	if estCycles > 0 {
		res.IPC = float64(totalInstr) / estCycles
	}
	mcis := make([]MetricCI, len(f.names))
	for i, n := range f.names {
		mcis[i] = MetricCI{Name: n, MeanPer1K: f.counters[i].Mean(), CI95: f.counters[i].CI95()}
	}
	emitMetrics(d, spec.Name, r.inst, est.FinalClock, opt)
	return SampledResult{
		Result:               res,
		CyclesCI:             est.CyclesCI(),
		MeanLookupCI:         f.lookup.CI95(),
		MissesPer1KCI:        f.missRate.CI95(),
		Intervals:            est.Intervals,
		DetailedInstructions: detailedTotal,
		Metrics:              mcis,
	}
}
