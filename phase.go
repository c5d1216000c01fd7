package tlc

// Phase-aware representative sampling: the root-package glue between the
// clustering machinery (internal/sample, internal/cpu.PhaseProfiler) and
// the run pipeline. A phased run profiles the timed streams in a cheap
// functional pass (rewinding them afterwards, so the measured streams are
// untouched), clusters the windows into program phases, and
// times one weighted representative interval per cluster — several times
// fewer detailed intervals than uniform sampling at the same accuracy.
// Profiles are design-independent and content-addressed, so a
// PhaseProfileStore pays the profiling pass once per benchmark across all
// six designs — and, with a disk tier, once per -ckptdir.

import (
	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/metrics"
	"tlc/internal/sample"
	"tlc/internal/workload"
)

// phaseProfileKey content-addresses a workload's phase profile. It folds
// exactly what shapes the profiled stream and its clustering — the profile
// format, the system geometry (the shadow caches), the workload spec, the
// warm plan (the stream's position when timing starts; Reseed preserves
// position, so two runs with different warm lengths profile different
// windows), the timed seed and length, the window/cluster shape, and the
// CMP axis — and nothing design-specific, so one profile serves every L2
// design of a benchmark.
func phaseProfileKey(spec workload.Spec, opt Options) string {
	warmSeed, warm := warmPlan(spec, opt)
	k := newKeyHasher()
	k.u64(uint64(sample.ProfileFormat))
	k.system(config.DefaultSystem())
	k.spec(spec)
	k.u64(uint64(warmSeed))
	k.u64(warm)
	k.u64(uint64(opt.Seed))
	k.u64(opt.RunInstructions)
	k.i(opt.PhaseWindows)
	k.i(opt.PhaseClusters)
	k.cmp(opt.cmpConfig())
	return k.sum()
}

// phaseProfileFor resolves the run's phase profile: a cached entry that
// passes sample.Profile.Check (and carries the right key) wins; anything
// else — miss, stale format, foreign shape, corrupt file — falls back
// to compute, whose result is stored for the next run. cached reports
// whether the store supplied the profile; because clustering is
// bit-deterministic in the key, a cached profile selects exactly the
// intervals a recompute would. A compute that fails (opt.Cancel tripped)
// stores nothing and returns its error.
func phaseProfileFor(spec workload.Spec, opt Options, sopt sample.Options, compute func(key string) (sample.Profile, error)) (prof sample.Profile, cached bool, err error) {
	key := phaseProfileKey(spec, opt)
	if opt.PhaseProfiles != nil {
		if prof, ok := opt.PhaseProfiles.Get(key); ok &&
			prof.Key == key && prof.Check(opt.RunInstructions, sopt) == nil {
			return prof, true, nil
		}
	}
	if prof, err = compute(key); err != nil {
		return sample.Profile{}, false, err
	}
	if opt.PhaseProfiles != nil {
		opt.PhaseProfiles.Put(key, prof)
	}
	return prof, false, nil
}

// computePhaseProfile runs the profiling pass over the prepared streams:
// save every stream's position, drive each window through per-core shadow
// caches (a private L1 and an uncontended view of the L2), rewind. Features
// sum across cores; window weights stay per-core instruction counts, to
// match the phase plan's per-core accounting. The rewound streams are
// bit-identical to streams that never profiled (the counters the pass
// dirtied reset, matching prepare's contract that metrics cover only the
// timed interval). opt.Cancel is polled once per window and once per
// clustering iteration; a cancelled pass returns its error and leaves the
// streams mid-profile, so the caller must discard the run.
func computePhaseProfile(key string, streams []stream, opt Options) (sample.Profile, error) {
	states := make([]workload.CMPState, len(streams))
	profs := make([]*cpu.PhaseProfiler, len(streams))
	for i, s := range streams {
		states[i] = streamState(s)
		profs[i] = cpu.NewPhaseProfiler(config.DefaultSystem())
	}
	lens := sample.WindowLengths(opt.RunInstructions, opt.PhaseWindows)
	feats := make([][]float64, len(lens))
	for w, n := range lens {
		if opt.Cancel != nil {
			if err := opt.Cancel(); err != nil {
				return sample.Profile{}, err
			}
		}
		var f cpu.PhaseFeatures
		for i, s := range streams {
			f.Add(profs[i].Window(s, n))
		}
		feats[w] = f.Vector()
	}
	for i, s := range streams {
		setStreamState(s, states[i])
		s.ResetCounters()
	}
	return sample.BuildProfile(key, opt.RunInstructions, opt.SampleOptions(), feats, lens, opt.Cancel)
}

// registerPhaseMetrics publishes phase-sampling provenance. The counters
// exist only on phase runs — and sample.phase.profile_cached only on runs
// that reused a cached profile — mirroring sim.lanes.restored, so metric
// artifacts diff clean on shared names across modes.
func registerPhaseMetrics(reg *metrics.Registry, prof sample.Profile, cached bool) {
	windows, clusters := uint64(prof.Windows), uint64(len(prof.Reps))
	reg.CounterFunc("sample.phase.windows", func() uint64 { return windows })
	reg.CounterFunc("sample.phase.clusters", func() uint64 { return clusters })
	if cached {
		reg.CounterFunc("sample.phase.profile_cached", func() uint64 { return 1 })
	}
}

// calibratePhase sharpens the phased cycle estimate with the GREG
// estimator (sample.Estimate.Calibrate): measured representative CPIs
// regress on three per-span event rates whose exact full-run totals we
// hold — L2 misses (detailed counter plus warm-path probe counting),
// fetch mispredicts (the workload generator counts them in every delivery
// mode), and the profile's shadow-L1 miss rate (functional, so the
// profiled per-window value IS the run's value). Slope bounds are loose
// physical caps: an L2 miss cannot plausibly cost more than twice the
// DRAM latency, a mispredict more than a few pipeline refills, an L1 miss
// more than a far-bank L2 lookup.
func calibratePhase(est *sample.Estimate, prof sample.Profile, obs *observer, totL2, totMispr float64) {
	sys := config.DefaultSystem()
	var totL1 float64
	for w, f := range prof.Features {
		totL1 += f[cpu.FeatL1MissRate] * float64(prof.Instr[w])
	}
	cal := sample.Calibration{
		Totals: []float64{totL2, totMispr, totL1},
		Bounds: [][2]float64{
			{0, 2 * float64(sys.MemoryLatency)},
			{0, 3 * float64(sys.PipelineStages)},
			{0, 60},
		},
	}
	for _, s := range obs.spans {
		cal.Obs = append(cal.Obs, sample.SpanObs{
			Cluster: s.stratum,
			CPI:     s.cpi,
			X: []float64{
				s.l2m / float64(s.instr),
				s.mispr / float64(s.instr),
				prof.Features[prof.Reps[s.stratum]][cpu.FeatL1MissRate],
			},
		})
	}
	est.Calibrate(prof, cal)
}
