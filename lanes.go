package tlc

import (
	"fmt"
	"reflect"
	"time"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sample"
	"tlc/internal/sim"
	"tlc/internal/snapshot"
	"tlc/internal/workload"
)

// warmPlan resolves the effective warm-up parameters of an options set: the
// seed the warm stream runs under and the warm length. It is the keying
// rule prepare and the lane-parallel warm pass must agree on — both derive
// the same snapshot.Key from it, which is what lets a lane pass pre-pay
// warm-ups that later scalar runs restore.
func warmPlan(spec workload.Spec, opt Options) (warmSeed int64, warm uint64) {
	warmSeed = opt.WarmSeed
	if warmSeed == 0 {
		warmSeed = opt.Seed
	}
	warm = opt.WarmInstructions
	if warm == 0 {
		warm = spec.AutoWarmInstructions()
	}
	return warmSeed, warm
}

// WarmStream reports the warm plan of a run of benchmark under opt — the
// seed its warm stream runs under and the warm length — and whether a lane
// pass can share that stream with other designs: only a one-core run of a
// known benchmark can (a CMP machine warms one stream per core; see
// WarmLanes). Grid planners group points by it.
func WarmStream(benchmark string, opt Options) (warmSeed int64, warm uint64, shared bool) {
	spec, ok := workload.SpecByName(benchmark)
	if !ok || opt.cmpConfig().Cores > 1 {
		return 0, 0, false
	}
	warmSeed, warm = warmPlan(spec, opt)
	return warmSeed, warm, true
}

// LaneStats reports what one lane-parallel pass covered.
type LaneStats struct {
	// Lanes is the number of distinct configurations the shared pass
	// warmed (grid points needing no warm-up — checkpoint already present,
	// or a duplicate configuration — contribute no lane).
	Lanes int
	// Batches counts the shared stream batches consumed once on behalf of
	// all lanes; each is a batch every lane would otherwise have generated
	// for itself.
	Batches uint64
	// Warm is the host time the pass spent bringing its lanes to the
	// measured-interval start: the shared warm-up, or restoring
	// checkpoints. RunLanes spent the rest of its call timing.
	Warm time.Duration
}

// lane is one distinct configuration of a lane group: its design, its
// checkpoint key, its live instance, whether its warm state came from a
// shared pass (the sim.lanes.restored provenance), and its functional L2
// misses over the fast-forward stretches that count them.
type lane struct {
	design Design
	key    snapshot.Key
	inst   l2.Instrumented
	shared bool
	// countWarm gates warmMisses: the fan-out probes each block before
	// installing it and counts the absent ones — the misses a detailed run
	// over the same stretch would have charged. Off for warm-up; a
	// calibrated phase run turns it on across its timed region to total
	// its L2-miss covariate exactly. The probe never mutates cache state,
	// so counting cannot perturb a run.
	countWarm  bool
	warmMisses uint64
}

// planLanes lists the distinct configurations of designs for one
// benchmark under opt's warm plan, in first-occurrence order.
func planLanes(designs []Design, spec workload.Spec, opt Options) []*lane {
	warmSeed, warm := warmPlan(spec, opt)
	var out []*lane
	seen := make(map[snapshot.Key]bool, len(designs))
	for _, d := range designs {
		key := snapshot.Key{Config: configHash(d, spec, opt.cmpConfig()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
		if !seen[key] {
			seen[key] = true
			out = append(out, &lane{design: d, key: key})
		}
	}
	return out
}

// WarmLanes warms every distinct configuration of designs for one
// benchmark through a single shared workload stream and stores the
// per-configuration checkpoints in opt.Checkpoints. A subsequent run of
// any (design, benchmark) pair under options with the same warm plan
// restores its checkpoint and skips warm-up — and because functional
// warm-up has no feedback from the L2 into the reference stream, the
// restored state is bit-identical to what that run's own warm-up would
// have produced (TestLaneScalarEquivalence pins this).
//
// The pass is an accelerator, never a requirement: with no checkpoint
// store, fewer than two lanes left to warm, or a CMP machine, it does
// nothing and runs warm per point as before. The returned stats report
// only what the shared pass actually executed. A non-nil error means
// opt.Cancel aborted the pass; no checkpoint is stored.
func WarmLanes(designs []Design, benchmark string, opt Options) (LaneStats, error) {
	spec, ok := workload.SpecByName(benchmark)
	if !ok {
		return LaneStats{}, fmt.Errorf("tlc: unknown benchmark %q", benchmark)
	}
	if opt.Checkpoints == nil || opt.cores() > 1 {
		// Core-count branch: lane warming is a single-core accelerator. CMP
		// runs warm N per-core streams and seed a coherence directory; a
		// shared single-stream pass has nothing bit-identical to offer them.
		return LaneStats{}, nil
	}
	var todo []*lane
	for _, l := range planLanes(designs, spec, opt) {
		if !opt.Checkpoints.Has(l.key) {
			todo = append(todo, l)
		}
	}
	if len(todo) < 2 {
		// A lone lane shares nothing; let the point's own prepare warm it.
		return LaneStats{}, nil
	}
	start := time.Now()
	gen, _, err := warmLanes(todo, spec, opt)
	if err != nil {
		return LaneStats{}, err
	}
	return LaneStats{Lanes: len(todo), Batches: gen.batches, Warm: time.Since(start)}, nil
}

// warmLanes is the lane warm pass. Every lane shares the run machine's one
// L1 geometry and starts from the same empty L1, so every lane's L1
// follows the same trajectory: the pass warms one core through the
// ordinary Core.Warm path, with a fan-out L2 that forwards each sweep's
// spill to every lane's freshly built design, and the core's snapshot is
// every lane's core state. It stores each lane's checkpoint when opt has a
// store, marked as lane-warmed when the pass warmed more than one lane,
// and returns the warmed generator with the checkpoint's front-end half:
// what a timed pass continues from.
func warmLanes(lanes []*lane, spec workload.Spec, opt Options) (*countingStream, snapshot.Checkpoint, error) {
	warmSeed, warm := warmPlan(spec, opt)
	shared := len(lanes) > 1
	for _, l := range lanes {
		l.inst = Build(l.design, opt)
		l.shared = shared
	}
	fan := laneFanout(lanes)
	// One generator drives every lane. PreWarm reads the spec-derived
	// layout without consuming generator state, so installing the footprint
	// through the fan-out leaves the shared stream exactly where each
	// lane's private generator would have started its warm-up.
	gen := &countingStream{Generator: workload.New(spec, warmSeed)}
	gen.PreWarm(fan)
	core := cpu.New(config.DefaultSystem(), fan)
	core.SetCancel(opt.Cancel)
	core.Warm(gen, warm)
	if err := core.CancelErr(); err != nil {
		return nil, snapshot.Checkpoint{}, fmt.Errorf("tlc: %s lane warm-up cancelled: %w", spec.Name, err)
	}
	front := snapshot.Checkpoint{
		Cores: []cpu.State{core.Snapshot()},
		Gens:  []workload.CMPState{{Gen: gen.State()}},
	}
	for _, l := range lanes {
		snap, ok := l.inst.(l2.Snapshotter)
		if !ok || opt.Checkpoints == nil {
			continue
		}
		// The lanes' checkpoints share the front-end states: stored
		// checkpoints are read-only.
		opt.Checkpoints.Put(l.key, snapshot.Checkpoint{
			Cores: front.Cores,
			L2:    snap.SnapshotState(),
			Gens:  front.Gens,
			Lanes: shared,
		})
	}
	return gen, front, nil
}

// RunLanes runs designs on one benchmark as timed lanes and returns one
// SampledResult per design, in order, each bit-identical to RunSampled's
// for that design under sampled options and carrying Run's Result alone
// under full-detail ones. With one core the L1's path does not depend on
// the L2, so one stream and one L1 — one front end — drive a back end per
// design:
//
//   - every distinct configuration whose checkpoint opt.Checkpoints
//     already holds is restored from it; the rest warm together through
//     the WarmLanes pass, which stores their checkpoints;
//   - the timed region then runs all of them on the live instances
//     (laneTarget): a full-detail run is one detailed interval, and a
//     sampled run follows its plan through sample.Run, fast-forwarding
//     every lane's L2 in one Core.Warm behind the fan-out and timing each
//     detailed interval once over all back ends. A phase run profiles the
//     shared stream once for the group.
//
// Each design's registry carries the names its own run's does:
// sim.lanes.restored when its warm state came from a shared pass, and,
// on phase runs, sample.phase.profile_cached on every lane after the
// group's first when opt has a profile store — the lane the store would
// have missed for, had each design run on its own, in order. opt.OnMetrics
// fires once per distinct configuration. CMP options are rejected. An
// error (cancellation, or checkpoints of one warm plan that disagree on
// the front end) returns no results and fires no OnMetrics.
func RunLanes(designs []Design, benchmark string, opt Options) ([]SampledResult, LaneStats, error) {
	spec, ok := workload.SpecByName(benchmark)
	if !ok {
		return nil, LaneStats{}, fmt.Errorf("tlc: unknown benchmark %q", benchmark)
	}
	if err := opt.Validate(); err != nil {
		return nil, LaneStats{}, err
	}
	if opt.cores() > 1 {
		// Core-count branch: a shared front end needs one core.
		return nil, LaneStats{}, fmt.Errorf("tlc: timed lanes need one-core options")
	}
	return runLanes(designs, spec, opt)
}

// runLanes is RunLanes on a validated one-core spec. A one-core sampled
// run (RunSpecSampled) is its one-design case.
func runLanes(designs []Design, spec workload.Spec, opt Options) ([]SampledResult, LaneStats, error) {
	start := time.Now()
	lanes := planLanes(designs, spec, opt)
	core, gen, st, err := prepareLanes(lanes, spec, opt)
	if err != nil {
		return nil, LaneStats{}, err
	}
	st.Warm = time.Since(start)

	warmSeed, _ := warmPlan(spec, opt)
	t := newLaneTarget(core, gen.Generator, lanes)
	startTimed(gen.Generator, warmSeed, opt)
	core.SetCancel(opt.Cancel)
	var res []SampledResult
	if opt.Sampled() {
		res, err = t.sample(lanes, spec, opt)
	} else {
		t.Interval(0, opt.RunInstructions)
		if err = core.CancelErr(); err != nil {
			err = fmt.Errorf("run cancelled: %w", err)
		} else {
			res = make([]SampledResult, len(lanes))
			for i, l := range lanes {
				res[i].Result = finish(l.design, spec.Name, l.inst, t.res[i], opt)
			}
		}
	}
	if err != nil {
		group := spec.Name
		if len(lanes) == 1 {
			group = fmt.Sprintf("%v %s", lanes[0].design, spec.Name)
		}
		return nil, LaneStats{}, fmt.Errorf("tlc: %s %w", group, err)
	}
	byDesign := make(map[Design]SampledResult, len(lanes))
	for i, l := range lanes {
		byDesign[l.design] = res[i]
	}
	out := make([]SampledResult, len(designs))
	for i, d := range designs {
		out[i] = byDesign[d]
	}
	return out, st, nil
}

// laneTarget is a lane group's timed region as a sample.Target: its front
// end — the core over the fan-out and the shared generator — and one back
// end per lane. A fast-forward stretch is one Core.Warm, whose spill the
// fan-out installs in every lane; a detailed interval is one drive of the
// front end over every back end, interval 0 starting each back end's
// epoch as RunFrom does and later ones resuming it.
type laneTarget struct {
	core  *cpu.Core
	gen   *workload.Generator
	backs []*cpu.Backend
	res   []cpu.Result
}

// newLaneTarget builds a prepared group's timed region: a back end per
// lane behind core, each publishing the names a restored run's does in its
// lane's registry.
func newLaneTarget(core *cpu.Core, gen *workload.Generator, lanes []*lane) *laneTarget {
	t := &laneTarget{core: core, gen: gen, backs: make([]*cpu.Backend, len(lanes)), res: make([]cpu.Result, len(lanes))}
	for i, l := range lanes {
		reg := l.inst.Metrics()
		t.backs[i] = core.NewBackend(l.inst)
		registerOneCore(reg, t.backs[i], gen)
		if l.shared {
			markLaneRestored(reg)
		}
	}
	return t
}

func (t *laneTarget) Lanes() int { return len(t.backs) }

func (t *laneTarget) Warm(n uint64) { t.core.Warm(t.gen, n) }

func (t *laneTarget) Interval(i int, n uint64) []cpu.Result {
	if i == 0 {
		t.core.RunLanes(t.gen, n, t.backs)
	} else {
		t.core.ResumeLanes(t.gen, n, t.backs)
	}
	for k, b := range t.backs {
		t.res[k] = b.Result()
	}
	return t.res
}

// sample runs the group's sampled plan — the phase profile's, fetched or
// computed once on the shared stream, or the uniform one — and assembles
// each lane's SampledResult from its own registry and estimate. A phase
// run's estimates are GREG-calibrated, each lane's against its own exact
// L2-miss total: its detailed misses plus the functional misses the
// fan-out counted across the fast-forward stretches.
func (t *laneTarget) sample(lanes []*lane, spec workload.Spec, opt Options) ([]SampledResult, error) {
	sopt := opt.SampleOptions()
	plan, prof, cached, err := samplePlan(spec, opt, []stream{t.gen})
	if err != nil {
		return nil, fmt.Errorf("phase profile cancelled: %w", err)
	}
	obs := make([]*observer, len(lanes))
	rec := make([]func(sample.Interval), len(lanes))
	for i, l := range lanes {
		reg := l.inst.Metrics()
		if sopt.Phase() {
			registerPhaseMetrics(reg, prof, cached || (i > 0 && opt.PhaseProfiles != nil))
		}
		obs[i], rec[i] = newObserver(reg, l.inst)
		l.countWarm = sopt.Phase()
	}
	ests := sample.Run(t, plan, func(k int, iv sample.Interval) { rec[k](iv) })
	if err := t.core.CancelErr(); err != nil {
		return nil, fmt.Errorf("run cancelled: %w", err)
	}
	out := make([]SampledResult, len(lanes))
	for i, l := range lanes {
		if sopt.Phase() {
			reg := l.inst.Metrics()
			totL2 := float64(reg.CounterValue("l2.misses")) + float64(l.warmMisses)
			calibratePhase(&ests[i], prof, obs[i], totL2, float64(reg.CounterValue("workload.mispredicts")))
		}
		out[i] = assembleSampled(l.design, spec, opt, l.inst, 1, ests[i], obs[i].fold(plan.Weights))
	}
	return out, nil
}

// prepareLanes brings a lane group to measured-interval start: a lane
// whose checkpoint the store holds restores it, and the rest warm together
// through warmLanes. It returns the front end the lanes share — a core
// over the fan-out of every lane, holding the warmed or restored L1, and
// the generator positioned where the warm-up left it — with the stats of
// the shared warm-up. Every checkpoint of one warm plan must agree on the
// front end; the first one whose core half the core rejects is a miss,
// like a design half its design rejects, and its lane warms.
func prepareLanes(lanes []*lane, spec workload.Spec, opt Options) (*cpu.Core, *countingStream, LaneStats, error) {
	errFront := fmt.Errorf("tlc: %s checkpoints of one warm plan disagree on the core or stream state", spec.Name)
	core := cpu.New(config.DefaultSystem(), laneFanout(lanes))
	var (
		todo  []*lane
		front snapshot.Checkpoint
		st    LaneStats
	)
	for _, l := range lanes {
		ckp, ok := restoreLane(l, opt)
		if ok && front.Cores == nil {
			ok = core.Restore(ckp.Cores[0]) == nil
		}
		if !ok {
			todo = append(todo, l)
			continue
		}
		if front.Cores != nil && !sameFront(front, ckp) {
			return nil, nil, LaneStats{}, errFront
		}
		front = ckp
	}
	if len(todo) == 0 {
		warmSeed, _ := warmPlan(spec, opt)
		gen := &countingStream{Generator: workload.New(spec, warmSeed)}
		gen.SetState(front.Gens[0].Gen)
		return core, gen, st, nil
	}
	gen, warmed, err := warmLanes(todo, spec, opt)
	if err != nil {
		return nil, nil, LaneStats{}, err
	}
	if front.Cores != nil && !sameFront(front, warmed) {
		return nil, nil, LaneStats{}, errFront
	}
	if len(todo) > 1 {
		st = LaneStats{Lanes: len(todo), Batches: gen.batches}
	}
	// The warm pass's core fanned out to the lanes it warmed; the timed
	// region's fans out to all of them, from the same L1 state.
	if err := core.Restore(warmed.Cores[0]); err != nil {
		return nil, nil, LaneStats{}, err
	}
	return core, gen, st, nil
}

// restoreLane builds a lane's design and restores it from the lane's
// checkpoint, reporting false when the store holds none for a one-core
// machine or the design rejects it.
func restoreLane(l *lane, opt Options) (snapshot.Checkpoint, bool) {
	if opt.Checkpoints == nil || !opt.Checkpoints.Has(l.key) {
		return snapshot.Checkpoint{}, false
	}
	ckp, ok := opt.Checkpoints.Get(l.key)
	if !ok {
		return snapshot.Checkpoint{}, false
	}
	inst := Build(l.design, opt)
	if restoreDesign(inst, ckp, 1) != nil {
		return snapshot.Checkpoint{}, false
	}
	l.inst, l.shared = inst, ckp.Lanes
	return ckp, true
}

// sameFront reports whether two one-core checkpoints hold the same core
// and stream state.
func sameFront(a, b snapshot.Checkpoint) bool {
	return reflect.DeepEqual(a.Cores, b.Cores) && reflect.DeepEqual(a.Gens, b.Gens)
}

// laneFanout is the L2 behind a lane group's one core: every functional
// install goes to every lane's design, in order, and a lane that counts
// warm misses probes each block before its install. One rule serves a
// group of six and a one-design run alike. The fan-out has no timed side:
// each lane's back end reaches its design directly.
type laneFanout []*lane

func (f laneFanout) Access(sim.Time, mem.Request) l2.Outcome {
	panic("tlc: timed access through a lane fan-out")
}

// Contains reports whether every lane holds b.
func (f laneFanout) Contains(b mem.Block) bool {
	for _, l := range f {
		if !l.inst.Contains(b) {
			return false
		}
	}
	return true
}

func (f laneFanout) Warm(b mem.Block) { f.WarmBulk([]mem.Block{b}) }

// WarmBulk implements l2.Warmer, reaching each lane's bulk kernel with
// one dispatch per sweep. A counting lane probes the whole sweep before
// installing it, so a block repeated within one spill (a victim refilled
// in the same sweep) counts once per probe rather than once per true
// miss; at a few hundred references per sweep the double-count is noise
// against the covariate total it feeds.
func (f laneFanout) WarmBulk(blocks []mem.Block) {
	for _, l := range f {
		if l.countWarm {
			for _, b := range blocks {
				if !l.inst.Contains(b) {
					l.warmMisses++
				}
			}
		}
		l2.WarmAll(l.inst, blocks)
	}
}

// countingStream counts the NextMems fills a lane pass shares: each is a
// batch every lane would otherwise have generated for itself.
type countingStream struct {
	*workload.Generator
	batches uint64
}

func (s *countingStream) NextMems(buf []cpu.MemRef, maxInstr uint64) (int, uint64) {
	s.batches++
	return s.Generator.NextMems(buf, maxInstr)
}
