package tlc

import (
	"fmt"
	"reflect"
	"time"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
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
// checkpoint key, its live instance, and whether its warm state came from
// a shared pass (the sim.lanes.restored provenance).
type lane struct {
	design Design
	key    snapshot.Key
	inst   l2.Instrumented
	shared bool
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
	_, gen, _, err := warmLanes(todo, spec, opt)
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
// and returns the warmed core and generator — the front end a timed pass
// continues from — with the checkpoint's front-end half.
func warmLanes(lanes []*lane, spec workload.Spec, opt Options) (*cpu.Core, *countingStream, snapshot.Checkpoint, error) {
	warmSeed, warm := warmPlan(spec, opt)
	shared := len(lanes) > 1
	fan := make(laneFanout, len(lanes))
	for i, l := range lanes {
		l.inst = Build(l.design, opt)
		l.shared = shared
		fan[i] = l.inst
	}
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
		return nil, nil, snapshot.Checkpoint{}, fmt.Errorf("tlc: %s lane warm-up cancelled: %w", spec.Name, err)
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
	return core, gen, front, nil
}

// RunLanes runs designs on one benchmark as timed lanes and returns one
// Result per design, in order, each bit-identical to Run's for that
// design. With one core the L1's path does not depend on the L2, so one
// stream and one L1 — one front end — drive a back end per design:
//
//   - every distinct configuration whose checkpoint opt.Checkpoints
//     already holds is restored from it; the rest warm together through
//     the WarmLanes pass, which stores their checkpoints;
//   - the timed region then runs all of them in lockstep on the live
//     instances (cpu.Core.RunLanes): each stream batch is drawn and
//     resolved through the L1 once and timed by every back end.
//
// Each design's registry carries the names a restored Run's does,
// sim.lanes.restored included when its warm state came from a shared
// pass, and opt.OnMetrics fires once per distinct configuration. Sampled
// and CMP options are rejected. An error (cancellation, or checkpoints of
// one warm plan that disagree on the front end) returns no results and
// fires no OnMetrics.
func RunLanes(designs []Design, benchmark string, opt Options) ([]Result, LaneStats, error) {
	spec, ok := workload.SpecByName(benchmark)
	if !ok {
		return nil, LaneStats{}, fmt.Errorf("tlc: unknown benchmark %q", benchmark)
	}
	if err := opt.Validate(); err != nil {
		return nil, LaneStats{}, err
	}
	if opt.Sampled() || opt.cores() > 1 {
		// Core-count branch: a shared front end needs one core, and the
		// lanes time the whole run.
		return nil, LaneStats{}, fmt.Errorf("tlc: timed lanes need full-detail, one-core options")
	}
	start := time.Now()
	lanes := planLanes(designs, spec, opt)
	core, gen, st, err := prepareLanes(lanes, spec, opt)
	if err != nil {
		return nil, LaneStats{}, err
	}
	st.Warm = time.Since(start)

	warmSeed, _ := warmPlan(spec, opt)
	backs := make([]*cpu.Backend, len(lanes))
	for i, l := range lanes {
		reg := l.inst.Metrics()
		backs[i] = core.NewBackend(l.inst)
		registerOneCore(reg, backs[i], gen.Generator)
		if l.shared {
			markLaneRestored(reg)
		}
	}
	startTimed(gen.Generator, warmSeed, opt)
	core.SetCancel(opt.Cancel)
	core.RunLanes(gen.Generator, opt.RunInstructions, backs)
	if err := core.CancelErr(); err != nil {
		return nil, LaneStats{}, fmt.Errorf("tlc: %s timed lanes cancelled: %w", spec.Name, err)
	}
	byDesign := make(map[Design]Result, len(lanes))
	for i, l := range lanes {
		byDesign[l.design] = finish(l.design, spec.Name, l.inst, backs[i].Result(), opt)
	}
	out := make([]Result, len(designs))
	for i, d := range designs {
		out[i] = byDesign[d]
	}
	return out, st, nil
}

// prepareLanes brings a lane group to measured-interval start: a lane
// whose checkpoint the store holds restores it, and the rest warm together
// through warmLanes. It returns the front end the lanes share — the warmed
// core and generator, or, when every lane restored, a core and generator
// restored from their checkpoints — with the stats of the shared warm-up.
// Every checkpoint of one warm plan must agree on the front end.
func prepareLanes(lanes []*lane, spec workload.Spec, opt Options) (*cpu.Core, *countingStream, LaneStats, error) {
	errFront := fmt.Errorf("tlc: %s checkpoints of one warm plan disagree on the core or stream state", spec.Name)
	var (
		todo  []*lane
		front snapshot.Checkpoint
	)
	for _, l := range lanes {
		ckp, ok := restoreLane(l, opt)
		if !ok {
			todo = append(todo, l)
			continue
		}
		if front.Cores != nil && !sameFront(front, ckp) {
			return nil, nil, LaneStats{}, errFront
		}
		front = ckp
	}
	if len(todo) > 0 {
		core, gen, warmed, err := warmLanes(todo, spec, opt)
		if err != nil {
			return nil, nil, LaneStats{}, err
		}
		if front.Cores != nil && !sameFront(front, warmed) {
			return nil, nil, LaneStats{}, errFront
		}
		var st LaneStats
		if len(todo) > 1 {
			st = LaneStats{Lanes: len(todo), Batches: gen.batches}
		}
		return core, gen, st, nil
	}
	warmSeed, _ := warmPlan(spec, opt)
	core := cpu.New(config.DefaultSystem(), laneFanout(nil))
	if err := core.Restore(front.Cores[0]); err != nil {
		return nil, nil, LaneStats{}, err
	}
	gen := &countingStream{Generator: workload.New(spec, warmSeed)}
	gen.SetState(front.Gens[0].Gen)
	return core, gen, LaneStats{}, nil
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

// laneFanout is the L2 behind a lane pass's one core: every functional
// install goes to every lane's design, in order. A lane pass is warm-only
// and never counts warm misses, so timed access and residency probes
// have no meaning here and panic.
type laneFanout []l2.Cache

func (f laneFanout) Access(sim.Time, mem.Request) l2.Outcome {
	panic("tlc: timed access in a lane warm pass")
}

func (f laneFanout) Contains(mem.Block) bool {
	panic("tlc: residency probe in a lane warm pass")
}

func (f laneFanout) Warm(b mem.Block) {
	for _, c := range f {
		c.Warm(b)
	}
}

// WarmBulk implements l2.Warmer, reaching each lane's bulk kernel with
// one dispatch per sweep.
func (f laneFanout) WarmBulk(blocks []mem.Block) {
	for _, c := range f {
		l2.WarmAll(c, blocks)
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
