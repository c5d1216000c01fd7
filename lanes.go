package tlc

import (
	"fmt"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
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
// restored state is bit-identical to what that run's own scalar warm-up
// would have produced (TestLaneScalarEquivalence pins this).
//
// The pass is an accelerator, never a requirement: with no checkpoint
// store, fewer than two lanes left to warm, or designs that cannot
// snapshot, it does nothing and runs warm scalar as before. The returned
// stats report only what the shared pass actually executed. A non-nil
// error means opt.Cancel aborted the pass; no checkpoint is stored.
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
	type lane struct {
		inst l2.Instrumented
		core *cpu.Core
		snap l2.Snapshotter
		key  snapshot.Key
	}
	seen := make(map[snapshot.Key]bool, len(designs))
	lanes := make([]lane, 0, len(designs))
	for _, d := range designs {
		key := snapshot.Key{Config: configHash(d, spec, opt.cmpConfig(), opt.fidelity()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
		if seen[key] {
			continue
		}
		seen[key] = true
		if opt.Checkpoints.Has(key) {
			continue
		}
		// The lane machines exist only to be checkpointed: probes observe
		// runs, not warm-up, so they are stripped before building.
		bopt := opt
		bopt.Probe = nil
		inst := build(d, bopt)
		snap, ok := inst.(l2.Snapshotter)
		if !ok {
			continue
		}
		lanes = append(lanes, lane{inst, cpu.New(config.DefaultSystem(), inst), snap, key})
	}
	if len(lanes) < 2 {
		// A lone lane shares nothing; let the point's own prepare warm it.
		return LaneStats{}, nil
	}
	// One generator drives every lane. PreWarm reads the spec-derived
	// layout without consuming generator state, so installing the footprint
	// into each lane's L2 leaves the shared stream exactly where each
	// lane's private generator would have started its warm-up.
	gen := workload.New(spec, warmSeed)
	cores := make([]*cpu.Core, len(lanes))
	for i := range lanes {
		gen.PreWarm(lanes[i].inst)
		cores[i] = lanes[i].core
	}
	lw := cpu.NewLaneWarmer(cores)
	if err := lw.Warm(gen, warm, opt.Cancel); err != nil {
		return LaneStats{}, fmt.Errorf("tlc: %s lane warm-up cancelled: %w", spec.Name, err)
	}
	genState := gen.State()
	for i := range lanes {
		opt.Checkpoints.Put(lanes[i].key, snapshot.Checkpoint{
			Cores: []cpu.State{lanes[i].core.Snapshot()},
			L2:    lanes[i].snap.SnapshotState(),
			Gens:  []workload.CMPState{{Gen: genState}},
			Lanes: true,
		})
	}
	return LaneStats{Lanes: len(lanes), Batches: lw.Batches()}, nil
}
