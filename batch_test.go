package tlc

import (
	"reflect"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/machine"
	"tlc/internal/mem"
	"tlc/internal/sample"
	"tlc/internal/workload"
)

// oneAtATime delivers a generator's instructions through the Stream
// protocol one Next call per NextBatch or NextMems call, so nothing
// downstream of it ever sees a batch of more than one instruction.
type oneAtATime struct{ g *workload.Generator }

func (s oneAtATime) NextBatch(buf []cpu.Instr) int {
	buf[0] = s.g.Next()
	return 1
}

func (s oneAtATime) NextMems(buf []cpu.MemRef, _ uint64) (int, uint64) {
	in := s.g.Next()
	if !in.IsMem {
		return 0, 1
	}
	buf[0] = cpu.MemRef{Block: in.Block, Store: in.IsStore}
	return 1, 1
}

// scalarCache hides a design's l2.Warmer implementation (embedding the
// interface does not promote the concrete type's WarmBulk), forcing
// per-block Warm dispatch.
type scalarCache struct {
	l2.Instrumented
}

// refWarmer is the per-instruction reference warm loop Core.Warm must
// reproduce, written over the exported cache and l2 APIs: every
// instruction comes from Next, a memory op touches the L1 in two set
// scans (TouchAt, then InsertAt on a miss), and every L2 install is its
// own Warm call. Its state seeds a core through Core.Restore.
type refWarmer struct {
	l1    *cache.SetAssoc
	dirty []bool
	l2    l2.Cache
}

func newRefWarmer(l2c l2.Cache) *refWarmer {
	sys := config.DefaultSystem()
	l1 := cache.NewSetAssoc(sys.L1Bytes/mem.BlockBytes/sys.L1Assoc, sys.L1Assoc)
	return &refWarmer{l1: l1, dirty: make([]bool, l1.Blocks()), l2: l2c}
}

func (w *refWarmer) warm(gen *workload.Generator, n uint64) {
	for i := uint64(0); i < n; i++ {
		in := gen.Next()
		if !in.IsMem {
			continue
		}
		if idx, hit := w.l1.TouchAt(in.Block); hit {
			w.dirty[idx] = w.dirty[idx] || in.IsStore
			continue
		}
		// The incoming block takes the victim's line, so the victim's
		// dirty bit is read before the new line's state overwrites it.
		idx, victim, evicted := w.l1.InsertAt(in.Block)
		if evicted && w.dirty[idx] {
			w.l2.Warm(victim)
		}
		w.dirty[idx] = in.IsStore
		if !in.IsStore {
			w.l2.Warm(in.Block)
		}
	}
}

// state is the core state the loop has built, in checkpoint form.
func (w *refWarmer) state() cpu.State {
	return cpu.State{L1: w.l1.Snapshot(), Dirty: append([]bool(nil), w.dirty...)}
}

// equivalencePoint runs one (design, benchmark) pair through PreWarm + Warm
// + a detailed run and returns the run Result plus the post-run core and
// L2 snapshots. The scalar arm warms through refWarmer, restores the core
// from its state, and runs on one-instruction deliveries with per-block L2
// installs; the batched arm takes Core.Warm and native batches.
func equivalencePoint(t *testing.T, d Design, spec workload.Spec, scalar bool) (cpu.Result, cpu.State, l2.State) {
	t.Helper()
	const (
		warmInstrs = 150_000
		runInstrs  = 40_000
	)
	inst := Build(d, Options{})
	gen := workload.New(spec, 1)
	var core *cpu.Core
	var r cpu.Result
	if scalar {
		l2c := scalarCache{inst}
		gen.PreWarm(l2c)
		ref := newRefWarmer(l2c)
		ref.warm(gen, warmInstrs)
		core = cpu.New(config.DefaultSystem(), l2c)
		if err := core.Restore(ref.state()); err != nil {
			t.Fatal(err)
		}
		r = core.Run(oneAtATime{gen}, runInstrs)
	} else {
		gen.PreWarm(inst)
		core = cpu.New(config.DefaultSystem(), inst)
		core.Warm(gen, warmInstrs)
		r = core.Run(gen, runInstrs)
	}
	snap, ok := inst.(l2.Snapshotter)
	if !ok {
		t.Fatalf("%v does not snapshot", d)
	}
	return r, core.Snapshot(), snap.SnapshotState()
}

// TestBatchedScalarEquivalence is the tentpole's correctness gate: for all
// twelve benchmarks × all six designs, batched delivery (native NextBatch,
// the NextMems warm sweep, fused TouchOrInsertAt, bulk WarmBulk installs)
// produces the identical Result and bit-identical post-run L1 and L2 state
// as per-instruction delivery through the reference warm loop.
func TestBatchedScalarEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid; skipped in -short")
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			for _, spec := range workload.Specs() {
				sr, sCore, sL2 := equivalencePoint(t, d, spec, true)
				br, bCore, bL2 := equivalencePoint(t, d, spec, false)
				if sr != br {
					t.Errorf("%s: Result diverged:\nscalar  %+v\nbatched %+v", spec.Name, sr, br)
				}
				if !reflect.DeepEqual(sCore, bCore) {
					t.Errorf("%s: post-run L1 state diverged", spec.Name)
				}
				if !reflect.DeepEqual(sL2, bL2) {
					t.Errorf("%s: post-run L2 state diverged", spec.Name)
				}
			}
		})
	}
}

// TestSampledBatchedEquivalence extends the gate to sampled mode: warm
// stretches interleaved with detailed intervals must leave estimates and
// machine state identical to one-instruction delivery with per-block L2
// installs.
func TestSampledBatchedEquivalence(t *testing.T) {
	benches := []string{"gcc", "equake", "oltp"}
	plan, err := sample.UniformPlan(200_000, 8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			for _, name := range benches {
				spec, ok := workload.SpecByName(name)
				if !ok {
					t.Fatalf("unknown benchmark %q", name)
				}
				run := func(scalar bool) (sample.Estimate, cpu.State, l2.State) {
					inst := Build(d, Options{})
					gen := workload.New(spec, 1)
					var cacheArm l2.Cache = inst
					var streamArm cpu.Stream = gen
					if scalar {
						cacheArm = scalarCache{inst}
						streamArm = oneAtATime{gen}
					}
					core := cpu.New(config.DefaultSystem(), cacheArm)
					gen.PreWarm(cacheArm)
					core.Warm(streamArm, 100_000)
					m := machine.New([]*cpu.Core{core}, []cpu.Stream{streamArm}, nil)
					est := sample.Run(m, plan, nil)
					return est, core.Snapshot(), inst.(l2.Snapshotter).SnapshotState()
				}
				sEst, sCore, sL2 := run(true)
				bEst, bCore, bL2 := run(false)
				if !reflect.DeepEqual(sEst, bEst) {
					t.Errorf("%s: sampled estimate diverged:\nscalar  %+v\nbatched %+v", name, sEst, bEst)
				}
				if !reflect.DeepEqual(sCore, bCore) {
					t.Errorf("%s: post-run L1 state diverged", name)
				}
				if !reflect.DeepEqual(sL2, bL2) {
					t.Errorf("%s: post-run L2 state diverged", name)
				}
			}
		})
	}
}

// TestWarmFastPathDoesNotAllocate pins the batched warm loop — generator
// fast path, fused L1 scan, bulk L2 installs — at zero allocations per call
// once the core's reusable buffers exist.
func TestWarmFastPathDoesNotAllocate(t *testing.T) {
	spec, _ := workload.SpecByName("oltp")
	for _, d := range []Design{DesignSNUCA2, DesignTLC} {
		inst := Build(d, Options{})
		gen := workload.New(spec, 1)
		core := cpu.New(config.DefaultSystem(), inst)
		gen.PreWarm(inst)
		core.Warm(gen, 200_000) // allocate the batch buffers
		if allocs := testing.AllocsPerRun(10, func() { core.Warm(gen, 50_000) }); allocs != 0 {
			t.Errorf("%v: batched warm allocates %.2f per call, want 0", d, allocs)
		}
	}
}
