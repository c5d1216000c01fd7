package cpu

import (
	"testing"

	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

// fixedL2 answers every load with a fixed lookup latency and always hits.
type fixedL2 struct {
	lat    sim.Time
	misses bool
	memLat sim.Time
}

func (f *fixedL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	if req.Type == mem.Store {
		return l2.Outcome{Hit: true, ResolveAt: at, CompleteAt: at}
	}
	resolve := at + f.lat
	complete := resolve
	if f.misses {
		complete = resolve + f.memLat
	}
	return l2.Outcome{Hit: !f.misses, ResolveAt: resolve, CompleteAt: complete, Predictable: true, BanksAccessed: 1}
}
func (f *fixedL2) Warm(mem.Block)          {}
func (f *fixedL2) Contains(mem.Block) bool { return true }

// listStream replays a fixed instruction slice.
type listStream struct {
	ins []Instr
	i   int
}

func (s *listStream) Next() Instr {
	in := s.ins[s.i%len(s.ins)]
	s.i++
	return in
}

func (s *listStream) NextBatch(buf []Instr) int { return batchOf(s.Next, buf) }
func (s *listStream) NextMems(buf []MemRef, max uint64) (int, uint64) {
	return memsOf(s.Next, buf, max)
}

// batchOf and memsOf deliver a test stream's Next sequence through the
// batched Stream protocol, one instruction at a time.
func batchOf(next func() Instr, buf []Instr) int {
	for i := range buf {
		buf[i] = next()
	}
	return len(buf)
}

func memsOf(next func() Instr, buf []MemRef, max uint64) (n int, consumed uint64) {
	for consumed < max && n < len(buf) {
		in := next()
		consumed++
		if in.IsMem {
			buf[n] = MemRef{Block: in.Block, Store: in.IsStore}
			n++
		}
	}
	return n, consumed
}

// pattern builds a loop of `period` instructions with one L2-missing load
// (unique addresses so the L1 always misses) followed by a chain of
// dependent ALU ops.
func pattern(period, chain int) *listStream {
	var ins []Instr
	addr := mem.Block(0)
	for len(ins) < period {
		addr += 997 // L1-conflict-free stride, always a fresh block
		ins = append(ins, Instr{IsMem: true, Block: addr})
		for c := 0; c < chain; c++ {
			ins = append(ins, Instr{Dep: true})
		}
		for len(ins)%period != 0 && len(ins) < period {
			ins = append(ins, Instr{})
		}
	}
	return &listStream{ins: ins}
}

// uniqueLoads emits loads to fresh blocks so every one reaches the L2.
type uniqueLoads struct {
	addr mem.Block
	dep  bool
}

func (u *uniqueLoads) Next() Instr {
	u.addr += 997
	return Instr{IsMem: true, Block: u.addr, Dep: u.dep}
}

func (u *uniqueLoads) NextBatch(buf []Instr) int { return batchOf(u.Next, buf) }
func (u *uniqueLoads) NextMems(buf []MemRef, max uint64) (int, uint64) {
	return memsOf(u.Next, buf, max)
}

func run(t *testing.T, s Stream, l2c l2.Cache, n uint64) Result {
	t.Helper()
	core := New(config.DefaultSystem(), l2c)
	return core.Run(s, n)
}

func TestIdealIPCIsFetchWidth(t *testing.T) {
	res := run(t, &listStream{ins: []Instr{{}}}, &fixedL2{lat: 10}, 100_000)
	if got := res.IPC(); got < 3.9 || got > 4.01 {
		t.Fatalf("pure-ALU IPC %.2f, want ~4 (fetch width)", got)
	}
}

func TestSerialChainLimitsIPC(t *testing.T) {
	res := run(t, &listStream{ins: []Instr{{Dep: true}}}, &fixedL2{lat: 10}, 100_000)
	if got := res.IPC(); got < 0.95 || got > 1.05 {
		t.Fatalf("fully serial IPC %.2f, want ~1", got)
	}
}

func TestMispredictCostsPipelineRefill(t *testing.T) {
	clean := run(t, &listStream{ins: []Instr{{}}}, &fixedL2{lat: 10}, 100_000)
	noisy := run(t, &listStream{ins: append(make([]Instr, 99), Instr{Mispredict: true})}, &fixedL2{lat: 10}, 100_000)
	// 1000 mispredicts x 30 stages = 30K extra cycles.
	extra := int64(noisy.Cycles) - int64(clean.Cycles)
	if extra < 25_000 || extra > 35_000 {
		t.Fatalf("mispredict overhead %d cycles, want ~30K", extra)
	}
}

func TestL2HitLatencyReachesExecutionTime(t *testing.T) {
	// Dependent loads at L2 latencies 13 vs 25: the slower L2 must cost
	// roughly the latency difference per load.
	fast := run(t, &uniqueLoads{dep: true}, &fixedL2{lat: 13}, 50_000)
	slow := run(t, &uniqueLoads{dep: true}, &fixedL2{lat: 25}, 50_000)
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("L2 latency invisible: %d vs %d cycles", fast.Cycles, slow.Cycles)
	}
	perLoad := float64(slow.Cycles-fast.Cycles) / 50_000
	if perLoad < 8 || perLoad > 14 {
		t.Fatalf("dependent loads expose %.1f cycles each, want ~12", perLoad)
	}
}

func TestL2HitLatencyPartiallyHiddenWithoutDeps(t *testing.T) {
	// Independent loads overlap: exposure far below the latency delta,
	// but the ROB still cannot hide everything at high load rates.
	fast := run(t, &uniqueLoads{}, &fixedL2{lat: 13}, 50_000)
	slow := run(t, &uniqueLoads{}, &fixedL2{lat: 25}, 50_000)
	if slow.Cycles < fast.Cycles {
		t.Fatalf("independent loads: slower L2 cannot be faster (%d vs %d)", fast.Cycles, slow.Cycles)
	}
}

func TestMixedPatternExposesL2Latency(t *testing.T) {
	// The realistic shape: sparse L2 loads each feeding a short dependent
	// ALU chain. Latency differences must show in cycles.
	fast := run(t, pattern(50, 3), &fixedL2{lat: 13}, 200_000)
	slow := run(t, pattern(50, 3), &fixedL2{lat: 25}, 200_000)
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("mixed pattern hides L2 latency entirely: %d vs %d", fast.Cycles, slow.Cycles)
	}
}

func TestMissesDominateWhenPresent(t *testing.T) {
	hit := run(t, &uniqueLoads{}, &fixedL2{lat: 13}, 20_000)
	miss := run(t, &uniqueLoads{}, &fixedL2{lat: 13, misses: true, memLat: 300}, 20_000)
	if miss.Cycles < hit.Cycles*3 {
		t.Fatalf("all-miss run only %dx slower", miss.Cycles/hit.Cycles)
	}
}

func TestMSHRLimitsOverlap(t *testing.T) {
	// With all loads missing to memory, throughput is bounded by 8
	// outstanding requests: >= memLat/8 cycles per load.
	res := run(t, &uniqueLoads{}, &fixedL2{lat: 13, misses: true, memLat: 300}, 10_000)
	perLoad := float64(res.Cycles) / 10_000
	if perLoad < 300.0/8-5 {
		t.Fatalf("per-load %.1f cycles beats the MSHR bound %.1f", perLoad, 300.0/8)
	}
}

func TestL1FiltersRepeatedAccesses(t *testing.T) {
	same := &listStream{ins: []Instr{{IsMem: true, Block: 42}}}
	res := run(t, same, &fixedL2{lat: 13}, 10_000)
	if res.L2Loads > 1 {
		t.Fatalf("%d L2 loads for a single hot block, want <=1", res.L2Loads)
	}
	if res.L1DHits == 0 {
		t.Fatal("L1 recorded no hits")
	}
}

func TestDirtyEvictionsReachL2AsStores(t *testing.T) {
	// Store to many distinct blocks: L1 fills with dirty lines whose
	// evictions must reach the L2 as stores.
	var ins []Instr
	for i := 0; i < 4096; i++ {
		ins = append(ins, Instr{IsMem: true, IsStore: true, Block: mem.Block(i * 1024)})
	}
	res := run(t, &listStream{ins: ins}, &fixedL2{lat: 13}, 4096)
	if res.L2Stores == 0 {
		t.Fatal("no dirty writebacks reached the L2")
	}
}

func TestWarmTouchesL2Functionally(t *testing.T) {
	probe := &warmProbe{}
	core := New(config.DefaultSystem(), probe)
	core.Warm(&uniqueLoads{}, 1000)
	if probe.warmed == 0 {
		t.Fatal("warm did not reach the L2")
	}
	if probe.accessed != 0 {
		t.Fatal("warm must not perform timed accesses")
	}
}

type warmProbe struct {
	warmed   int
	accessed int
}

func (w *warmProbe) Access(at sim.Time, req mem.Request) l2.Outcome {
	w.accessed++
	return l2.Outcome{Hit: true, ResolveAt: at, CompleteAt: at}
}
func (w *warmProbe) Warm(mem.Block)          { w.warmed++ }
func (w *warmProbe) Contains(mem.Block) bool { return false }

func TestBackToBackRunsAreIdentical(t *testing.T) {
	// Regression test for stale per-run timing state: retire/issued ring
	// buffers, fetchPenalty, prevComplete, lastLoad, and the MSHR set used
	// to leak from one Run into the next, so a second identical Run on the
	// same core reported different cycles.
	core := New(config.DefaultSystem(), &fixedL2{lat: 13})
	// A small cyclic footprint that fits in the L1: warming it makes both
	// timed runs all-hit, so identical instruction streams must produce
	// identical timing once per-run state resets.
	mk := func() Stream {
		var ins []Instr
		for i := 0; i < 64; i++ {
			ins = append(ins, Instr{IsMem: true, Block: mem.Block(i), Dep: i%8 == 0})
			ins = append(ins, Instr{Dep: true}, Instr{Mispredict: i%16 == 0})
		}
		return &listStream{ins: ins}
	}
	core.Warm(mk(), 10_000)
	first := core.Run(mk(), 50_000)
	second := core.Run(mk(), 50_000)
	if first.Cycles != second.Cycles {
		t.Fatalf("back-to-back identical runs: %d vs %d cycles", first.Cycles, second.Cycles)
	}
	if first != second {
		t.Fatalf("back-to-back identical runs diverged: %+v vs %+v", first, second)
	}
}

func TestRunMatchesFreshCore(t *testing.T) {
	// A second run on a reused core must match a fresh core given the same
	// architectural (cache) state — timing state is per-run, cache state is
	// not.
	stream := func() Stream { return &listStream{ins: []Instr{{IsMem: true, Block: 7}, {Dep: true}}} }
	reused := New(config.DefaultSystem(), &fixedL2{lat: 13})
	reused.Warm(stream(), 1_000)
	reused.Run(stream(), 20_000)
	again := reused.Run(stream(), 20_000)

	fresh := New(config.DefaultSystem(), &fixedL2{lat: 13})
	fresh.Warm(stream(), 1_000)
	want := fresh.Run(stream(), 20_000)
	if again.Cycles != want.Cycles {
		t.Fatalf("reused core %d cycles, fresh core %d", again.Cycles, want.Cycles)
	}
}

func TestDirtyBitsTrackEvictions(t *testing.T) {
	// Store then force the set's ways to turn over: exactly the dirty
	// victims must reach the L2 as stores, and clean reloads must not.
	probe := &countingL2{}
	core := New(config.DefaultSystem(), probe)
	sets := config.DefaultSystem().L1Bytes / mem.BlockBytes / config.DefaultSystem().L1Assoc
	var ins []Instr
	// One dirty block, then enough clean loads in the same set to evict it.
	ins = append(ins, Instr{IsMem: true, IsStore: true, Block: mem.Block(sets)})
	for i := 2; i < 8; i++ {
		ins = append(ins, Instr{IsMem: true, Block: mem.Block(i * sets)})
	}
	core.Run(&listStream{ins: ins}, uint64(len(ins)))
	if probe.stores != 1 {
		t.Fatalf("%d dirty writebacks, want exactly 1", probe.stores)
	}
}

type countingL2 struct {
	stores uint64
}

func (c *countingL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	if req.Type == mem.Store {
		c.stores++
	}
	return l2.Outcome{Hit: true, ResolveAt: at + 10, CompleteAt: at + 10}
}
func (c *countingL2) Warm(mem.Block)          {}
func (c *countingL2) Contains(mem.Block) bool { return true }
