package tlc

import (
	"fmt"

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

// LaneStats reports what one lane-parallel warm pass covered.
type LaneStats struct {
	// Lanes is the number of distinct configurations the shared pass
	// warmed (grid points needing no warm-up — checkpoint already present,
	// or a duplicate configuration — contribute no lane).
	Lanes int
	// Batches counts the shared stream batches consumed once on behalf of
	// all lanes; each is a batch every lane would otherwise have generated
	// for itself.
	Batches uint64
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
// Every lane shares the run machine's one L1 geometry and starts from the
// same empty L1, so every lane's L1 follows the same trajectory. The pass
// therefore warms one core through the ordinary Core.Warm path, with a
// fan-out L2 that forwards each sweep's spill to every lane's design; the
// core's snapshot is every lane's core state.
//
// The pass is an accelerator, never a requirement: with no checkpoint
// store, fewer than two lanes left to warm, or designs that cannot
// snapshot, it does nothing and runs warm per point as before. The
// returned stats report only what the shared pass actually executed. A
// non-nil error means opt.Cancel aborted the pass; no checkpoint is
// stored.
func WarmLanes(designs []Design, benchmark string, opt Options) (LaneStats, error) {
	spec, ok := workload.SpecByName(benchmark)
	if !ok {
		return LaneStats{}, fmt.Errorf("tlc: unknown benchmark %q", benchmark)
	}
	if opt.Checkpoints == nil {
		return LaneStats{}, nil
	}
	if opt.cores() > 1 {
		// Core-count branch: lane warming is a single-core accelerator. CMP
		// runs warm N per-core streams and seed a coherence directory; a
		// shared single-stream pass has nothing bit-identical to offer them.
		return LaneStats{}, nil
	}
	warmSeed, warm := warmPlan(spec, opt)
	var (
		fan  laneFanout
		snap []l2.Snapshotter
		keys []snapshot.Key
	)
	seen := make(map[snapshot.Key]bool, len(designs))
	for _, d := range designs {
		key := snapshot.Key{Config: configHash(d, spec, opt.cmpConfig()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
		if seen[key] {
			continue
		}
		seen[key] = true
		if opt.Checkpoints.Has(key) {
			continue
		}
		inst := build(d, opt)
		s, ok := inst.(l2.Snapshotter)
		if !ok {
			continue
		}
		fan = append(fan, inst)
		snap = append(snap, s)
		keys = append(keys, key)
	}
	if len(fan) < 2 {
		// A lone lane shares nothing; let the point's own prepare warm it.
		return LaneStats{}, nil
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
		return LaneStats{}, fmt.Errorf("tlc: %s lane warm-up cancelled: %w", spec.Name, err)
	}
	genState := gen.State()
	for i := range fan {
		opt.Checkpoints.Put(keys[i], snapshot.Checkpoint{
			Cores: []cpu.State{core.Snapshot()},
			L2:    snap[i].SnapshotState(),
			Gens:  []workload.CMPState{{Gen: genState}},
			Lanes: true,
		})
	}
	return LaneStats{Lanes: len(fan), Batches: gen.batches}, nil
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
