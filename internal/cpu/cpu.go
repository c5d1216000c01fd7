// Package cpu is the dynamically scheduled processor timing model of
// Table 3: 4-wide fetch/issue, 128-entry reorder buffer, 64-entry
// scheduler window, split 64 KB 2-way L1 caches at 3 cycles, up to 8
// outstanding memory requests, and a 300-cycle memory behind the L2 under
// test.
//
// It substitutes for the paper's Simics + timing-first setup: instructions
// come from a synthetic trace (package workload), and the model preserves
// exactly the sensitivities the paper's results depend on — tolerance of
// short L2 latencies through out-of-order overlap, serialization of
// dependent loads, and stalls on L2 misses bounded by the MSHR count.
package cpu

import (
	"fmt"
	"slices"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Instr is one instruction of a synthetic trace.
type Instr struct {
	// IsMem marks loads and stores; other instructions execute in one
	// cycle.
	IsMem bool
	// IsStore distinguishes stores from loads (meaningful when IsMem).
	IsStore bool
	// Block is the 64-byte block the memory op touches.
	Block mem.Block
	// Dep marks an instruction that depends on the most recent
	// instruction of its kind: a dependent load cannot issue before the
	// previous load completes (pointer chasing); a dependent ALU op
	// cannot issue before the previous instruction completes (serial
	// integer chains, the ILP limiter).
	Dep bool
	// Mispredict marks a mispredicted branch: the front end restarts,
	// costing a pipeline refill (Table 3: 30 stages).
	Mispredict bool
}

// MemRef is one memory operation of a warm stream: the block and whether
// the access is a store. Functional warming needs nothing else. It aliases
// cache.WarmRef so the L1 array can consume whole batches directly
// (SetAssoc.WarmSweep) without a package cycle.
type MemRef = cache.WarmRef

// Stream produces a deterministic instruction sequence, delivered in
// batches. The two methods are two views of one sequence: interleaving
// them in any order yields the same instructions, and the stream's state
// after either is bit-identical to having delivered the same instructions
// one at a time — so a detailed interval can resume on the same stream
// right after a warm stretch.
type Stream interface {
	// NextBatch fills a caller-owned buffer with the next len(buf)
	// instructions and returns how many it wrote (always at least 1 for a
	// non-empty buffer). Detailed runs consume the stream through it.
	NextBatch(buf []Instr) int
	// NextMems is the warm-mode view: it advances the stream by up to
	// maxInstr instructions, materializing only the memory operations into
	// buf and skipping non-memory instructions as run-length counts. It
	// returns the number of MemRefs written and the total instructions
	// consumed (consumed >= n; the difference is the skipped non-memory
	// run), which is nonzero whenever maxInstr and len(buf) are.
	NextMems(buf []MemRef, maxInstr uint64) (n int, consumed uint64)
}

// Result summarizes one timed run.
type Result struct {
	Instructions uint64
	Cycles       sim.Time
	L1DHits      uint64
	L1DMisses    uint64
	L2Loads      uint64
	L2Stores     uint64
}

// IPC reports retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Coherence is the bus-side hook a CMP coherence layer installs on each
// core: the core reports every store (the BusRdX / upgrade moment — the
// writer must gain exclusive ownership) so the directory can invalidate
// remote L1 copies. Loads need no hook: load misses reach the shared L2
// through Access carrying the core id (BusRd), and load hits touch only
// lines this L1 already holds in a readable state.
type Coherence interface {
	StoreNotify(core int, b mem.Block)
}

// Core drives a Stream against an L2 design. A core is a front end and a
// back end. The front end owns the stream batch and the L1: it draws each
// batch once and resolves every memory operation's L1 outcome (hit or
// miss, dirty-victim writeback, dirty bit) in program order. The back end
// (Backend) owns everything that depends on the L2: the pipeline rings,
// the MSHRs, the L2 itself and the coherence hook. Run and Resume time one
// back end, the core's own; RunLanes times several behind one front end.
//
// The split is exact because nothing a back end does feeds back into the
// L1 of its own core: an L2 access never touches it, and coherence
// actions (Invalidate, Downgrade) only reach other cores' L1s, which run
// in other quanta of the machine's schedule.
type Core struct {
	sys config.System
	// be is the core's own back end; own lists it alone, the back-end list
	// Run and Resume drive, kept so they allocate nothing per call.
	be  *Backend
	own [1]*Backend

	l1 *cache.SetAssoc
	// dirty[idx] is the dirty bit of L1 line idx (set*assoc+way): per-way
	// state alongside the set-associative array, as the hardware keeps it.
	// A map keyed by block was the hot-loop allocator here. Bytes rather
	// than bools so the warm fast path can update them with arithmetic
	// instead of a data-random branch.
	dirty []uint8

	// Batched-delivery buffers, allocated lazily on first use and reused
	// for the core's lifetime so the hot loops stay allocation-free.
	// batch receives detailed-mode instructions, and l1out/victims record
	// each memory operation's resolved L1 outcome (victims[k] is meaningful
	// only when l1out[k] has l1Writeback). memBuf receives warm-mode memory
	// references (Core.Warm), and l2Warm collects warm-path L2 installs
	// for bulk delivery to an l2.Warmer.
	batch   []Instr
	l1out   []uint8
	victims []mem.Block
	memBuf  []MemRef
	l2Warm  []mem.Block

	// cancel, when set, is polled at batch boundaries during Warm and run;
	// a non-nil return aborts the loop and is retained in cancelErr. Polling
	// happens once per instruction batch (a few thousand instructions), so
	// cooperative cancellation costs a nil-check per batch, not per
	// instruction, and never perturbs the simulated state of a run that was
	// not cancelled.
	cancel    func() error
	cancelErr error

	// hits and misses count the current timed call's L1 outcomes; every
	// back end books them when the call ends.
	hits, misses uint64
}

// Backend is one design's timed pipeline: the reorder buffer, scheduler
// and retire rings, the MSHRs, the L2 it issues to, and the counters of
// all of them. It times the batches its front end draws, taking every
// memory operation's L1 outcome from the front end.
type Backend struct {
	sys config.System
	l2  l2.Cache
	// fe is the front end whose batches this back end times; resolving
	// marks it the first back end of the current batch, the one whose pass
	// resolves the batch through the L1.
	fe        *Core
	resolving bool

	// id is this core's CMP core index, stamped on every L2 request.
	// Single-core runs leave it zero.
	id int
	// coh, when non-nil, observes every store for MSI upgrade handling.
	// Nil on single-core runs: the hook costs one nil-check per store.
	coh Coherence

	// retire ring buffer: retire[i % ROB] is instruction i's retire time.
	retire []sim.Time
	// issued ring buffer: issued[i % sched] is when instruction i left the
	// scheduler (operands ready). A waiting instruction occupies a
	// scheduler entry, so instruction i cannot enter the window before
	// instruction i-sched has issued — the constraint that exposes L2
	// latencies beyond the 64-entry window's reach (Table 3).
	issued []sim.Time
	// outstanding L2 load completion times (MSHR occupancy), a small
	// sorted multiset maintained in place.
	outstanding []sim.Time
	lastLoad    sim.Time
	// prevComplete is the previous instruction's completion, for serial
	// ALU chains.
	prevComplete sim.Time
	// fetchPenalty accumulates branch-misprediction pipeline refills.
	fetchPenalty sim.Time

	// Timing-epoch state: RunFrom starts a new epoch; Resume continues the
	// current one. epochBase is the clock the epoch's fetch frontier counts
	// from, epochInstrs the detailed instructions executed so far in the
	// epoch (the ring-buffer index continues across Resume calls), and
	// lastRetire the retire time of the epoch's most recent instruction.
	epochBase   sim.Time
	epochInstrs uint64
	lastRetire  sim.Time

	res Result

	// cum accumulates pipeline-event counters over the whole timing epoch
	// (res resets on every run/Resume call; these reset with the epoch in
	// resetTiming), feeding the metrics registry. The L1 counts come from
	// the front end at the end of each call.
	cum counters
}

// counters are a back end's metric-registry counts.
type counters struct {
	l1dHits, l1dMisses     uint64
	l2Loads, l2Stores      uint64
	robStalls, schedStalls uint64
	mshrWaits, mispredicts uint64
}

// New builds a core over the given L2.
func New(sys config.System, l2c l2.Cache) *Core {
	sets := sys.L1Bytes / mem.BlockBytes / sys.L1Assoc
	l1 := cache.NewSetAssoc(sets, sys.L1Assoc)
	c := &Core{
		sys:   sys,
		l1:    l1,
		dirty: make([]uint8, l1.Blocks()),
	}
	c.be = c.NewBackend(l2c)
	c.own[0] = c.be
	return c
}

// NewBackend builds a back end over l2c behind this core's front end, with
// the core's machine parameters: the core's own, or a further one for
// RunLanes. A further back end has no coherence hook: only one-core
// machines share a front end.
func (c *Core) NewBackend(l2c l2.Cache) *Backend {
	return &Backend{
		sys:    c.sys,
		l2:     l2c,
		fe:     c,
		retire: make([]sim.Time, c.sys.ROBEntries),
		issued: make([]sim.Time, c.sys.SchedulerEntries),
		// MSHR occupancy never exceeds MaxOutstanding entries; a fixed
		// capacity keeps the tracking allocation-free.
		outstanding: make([]sim.Time, 0, c.sys.MaxOutstanding),
	}
}

// SetCoherence installs the MSI hook with this core's CMP core index. The
// machine layer calls it once per core after warm-up; single-core runs
// never do, keeping the default path free of coherence work beyond a
// nil-check per store.
func (c *Core) SetCoherence(id int, h Coherence) {
	c.be.id = id
	c.be.coh = h
}

// Invalidate removes b from the L1 (a remote BusRdX hitting this core's
// copy) and reports whether the line was present and whether it was dirty.
// The dirty bit clears with the line; the caller accounts the writeback.
func (c *Core) Invalidate(b mem.Block) (present, wasDirty bool) {
	way, ok := c.l1.WayOf(b)
	if !ok {
		return false, false
	}
	idx := b.SetIndex(c.l1.Sets())*c.l1.Assoc() + way
	wasDirty = c.dirty[idx] != 0
	c.dirty[idx] = 0
	c.l1.Remove(b)
	return true, wasDirty
}

// Downgrade clears b's dirty bit (a remote BusRd demoting this core's M
// copy to S) and reports whether the line was present and dirty. The line
// itself stays resident and readable.
func (c *Core) Downgrade(b mem.Block) (present, wasDirty bool) {
	way, ok := c.l1.WayOf(b)
	if !ok {
		return false, false
	}
	idx := b.SetIndex(c.l1.Sets())*c.l1.Assoc() + way
	wasDirty = c.dirty[idx] != 0
	c.dirty[idx] = 0
	return true, wasDirty
}

// VisitL1 calls fn for every valid L1 line with its dirty bit. The machine
// layer seeds the coherence directory from post-warm L1 contents with it;
// iteration order is deterministic (set-major, way order).
func (c *Core) VisitL1(fn func(b mem.Block, dirty bool)) {
	var buf []cache.Line
	for set := 0; set < c.l1.Sets(); set++ {
		buf = c.l1.AppendLinesIn(buf[:0], set)
		for _, ln := range buf {
			fn(ln.Block, c.dirty[set*c.l1.Assoc()+ln.Way] != 0)
		}
	}
}

// SetCancel installs a cooperative cancellation check, polled at batch
// boundaries by Warm and the timed run loops. When fn returns a non-nil
// error the current loop stops early and CancelErr reports it; the machine
// state is then mid-run and must be discarded (in particular, never
// checkpointed). A nil fn disables checking.
func (c *Core) SetCancel(fn func() error) { c.cancel = fn }

// CancelErr reports the error that aborted the most recent Warm or run
// call, if any. It clears on the next RunFrom (resetTiming), matching the
// rest of the per-epoch state.
func (c *Core) CancelErr() error { return c.cancelErr }

// cancelled polls the cancellation hook and records the first error.
func (c *Core) cancelled() bool {
	if c.cancel == nil || c.cancelErr != nil {
		return c.cancelErr != nil
	}
	if err := c.cancel(); err != nil {
		c.cancelErr = err
		return true
	}
	return false
}

// RegisterMetrics publishes the core's pipeline and L1 counters under
// "cpu.". The counters cover the current timing epoch: they reset with the
// pipeline in RunFrom, and accumulate across Resume calls.
func (c *Core) RegisterMetrics(r *metrics.Registry) {
	c.be.RegisterMetricsPrefixed(r, "")
}

// RegisterMetricsPrefixed is RegisterMetrics with the names prefixed — CMP
// runs publish each core's counters under "core.<i>." so per-core traffic
// stays attributable after aggregation.
func (c *Core) RegisterMetricsPrefixed(r *metrics.Registry, prefix string) {
	c.be.RegisterMetricsPrefixed(r, prefix)
}

// RegisterMetricsPrefixed publishes a back end's counters, its front
// end's L1 counts included, under prefix+"cpu." — the names a core with
// this back end as its own publishes.
func (b *Backend) RegisterMetricsPrefixed(r *metrics.Registry, prefix string) {
	r.CounterFunc(prefix+"cpu.l1d.hits", func() uint64 { return b.cum.l1dHits })
	r.CounterFunc(prefix+"cpu.l1d.misses", func() uint64 { return b.cum.l1dMisses })
	r.CounterFunc(prefix+"cpu.l2.loads", func() uint64 { return b.cum.l2Loads })
	r.CounterFunc(prefix+"cpu.l2.stores", func() uint64 { return b.cum.l2Stores })
	r.CounterFunc(prefix+"cpu.rob.stalls", func() uint64 { return b.cum.robStalls })
	r.CounterFunc(prefix+"cpu.sched.stalls", func() uint64 { return b.cum.schedStalls })
	r.CounterFunc(prefix+"cpu.mshr.waits", func() uint64 { return b.cum.mshrWaits })
	r.CounterFunc(prefix+"cpu.fetch.mispredicts", func() uint64 { return b.cum.mispredicts })
}

// RegisterMetricsSum publishes the summed counters of several cores under
// the plain "cpu." names, so CMP runs keep the aggregate names single-core
// tooling reads alongside the per-core "core.<i>.cpu." sets.
func RegisterMetricsSum(r *metrics.Registry, cores []*Core) {
	sum := func(read func(*counters) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, c := range cores {
				n += read(&c.be.cum)
			}
			return n
		}
	}
	r.CounterFunc("cpu.l1d.hits", sum(func(c *counters) uint64 { return c.l1dHits }))
	r.CounterFunc("cpu.l1d.misses", sum(func(c *counters) uint64 { return c.l1dMisses }))
	r.CounterFunc("cpu.l2.loads", sum(func(c *counters) uint64 { return c.l2Loads }))
	r.CounterFunc("cpu.l2.stores", sum(func(c *counters) uint64 { return c.l2Stores }))
	r.CounterFunc("cpu.rob.stalls", sum(func(c *counters) uint64 { return c.robStalls }))
	r.CounterFunc("cpu.sched.stalls", sum(func(c *counters) uint64 { return c.schedStalls }))
	r.CounterFunc("cpu.mshr.waits", sum(func(c *counters) uint64 { return c.mshrWaits }))
	r.CounterFunc("cpu.fetch.mispredicts", sum(func(c *counters) uint64 { return c.mispredicts }))
}

// Batch-buffer capacities. streamBatch bounds one detailed-mode NextBatch
// fill; memBatch bounds one warm-mode NextMems fill; l2WarmCap sizes the
// warm-path bulk-install buffer for the worst case of one sweep (a dirty
// writeback plus a load fill per reference) so a sweep's spill never
// reallocates. All keep the working set well inside the host cache while
// amortizing the interface crossings they exist to eliminate.
const (
	streamBatch = 4096
	memBatch    = 512
	l2WarmCap   = 2 * memBatch
)

// Warm advances the stream n instructions functionally: L1 state and L2
// contents update with no timing, so the measured interval starts from a
// steady-state cache.
//
// Each NextMems fill is driven through the L1 in one WarmSweep call, which
// appends — in reference order — every block the L2 must observe
// (dirty-victim writeback before the missing block's fill) to the reusable
// spill buffer. The L2 installs a warm loop emits never feed back into L1
// decisions, so delivering each sweep's spill in bulk (l2.WarmAll) leaves
// the L2 exactly as per-reference Warm calls would — the batched/scalar
// equivalence tests pin this against a per-instruction reference loop.
func (c *Core) Warm(s Stream, n uint64) {
	if c.memBuf == nil {
		c.memBuf = make([]MemRef, memBatch)
	}
	if c.l2Warm == nil {
		c.l2Warm = make([]mem.Block, 0, l2WarmCap)
	}
	for remaining := n; remaining > 0; {
		if c.cancelled() {
			return
		}
		m, consumed := s.NextMems(c.memBuf, remaining)
		if consumed == 0 {
			panic("cpu: warm stream made no progress")
		}
		remaining -= consumed
		spill := c.l1.WarmSweep(c.memBuf[:m], c.dirty, c.l2Warm[:0])
		l2.WarmAll(c.be.l2, spill)
	}
}

// Run times n instructions and returns the result. It may be called after
// Warm on the same stream. Per-run timing state resets on entry, so
// repeated Runs on one core (retaining the warmed L1/L2 contents) start
// from a clean pipeline rather than inheriting the previous run's retire,
// scheduler, MSHR, and fetch-penalty state.
func (c *Core) Run(s Stream, n uint64) Result { return c.RunFrom(s, n, 0) }

// RunFrom is Run with the pipeline's clock starting at cycle base instead
// of zero. Sampled execution uses it to keep simulated time monotone across
// detailed intervals: the L2 designs require non-decreasing access times
// (their port and link Resources book absolute spans), so a later interval
// must continue past an earlier one's finish rather than restart at zero.
// The returned Result's Cycles is the absolute finish time; the interval's
// own length is Cycles - base.
func (c *Core) RunFrom(s Stream, n uint64, base sim.Time) Result {
	c.resetTiming()
	c.be.epochBase = base
	c.be.lastRetire = base
	return c.run(s, n)
}

// Resume continues detailed timing where the previous RunFrom or Resume on
// this core left off: the retire and scheduler rings, MSHR occupancy, fetch
// frontier, and dependence state all carry across, so RunFrom(s, m, base)
// followed by Resume(s, n) is cycle-identical to a single RunFrom of m+n
// instructions. Sampled execution interleaves functional Warm stretches
// (which occupy no simulated time) with Resume intervals, so interval
// boundaries introduce no pipeline-restart transient into the measured CPI.
func (c *Core) Resume(s Stream, n uint64) Result { return c.run(s, n) }

// run times n instructions on the core's own back end within its current
// timing epoch: the one-back-end case of the detailed loop.
func (c *Core) run(s Stream, n uint64) Result {
	c.drive(s, n, c.own[:])
	return c.be.res
}

// RunLanes starts a timing epoch at cycle zero on every back end in backs
// and times n instructions of s on all of them in lockstep: each batch is
// drawn and resolved through this core's L1 once, then timed by every back
// end in turn. With backs holding only the core's own back end this is
// Run. The back ends' results are read with Result.
func (c *Core) RunLanes(s Stream, n uint64, backs []*Backend) {
	c.cancelErr = nil
	for _, b := range c.lanes(backs) {
		b.resetTiming()
	}
	c.drive(s, n, backs)
}

// ResumeLanes is RunLanes continuing every back end's current timing epoch,
// as Resume continues the core's own: sampled lanes time their first
// detailed interval with RunLanes and every later one with ResumeLanes.
func (c *Core) ResumeLanes(s Stream, n uint64, backs []*Backend) {
	c.drive(s, n, c.lanes(backs))
}

// lanes returns backs after checking that each is a back end of this
// core's.
func (c *Core) lanes(backs []*Backend) []*Backend {
	for _, b := range backs {
		if b.fe != c {
			panic("cpu: back end of another core")
		}
	}
	return backs
}

// Backend returns the core's own back end, the one Run and Resume time.
func (c *Core) Backend() *Backend { return c.be }

// Result reports the back end's most recent timed call.
func (b *Backend) Result() Result { return b.res }

// l1out flags: an L1 hit, or a miss whose evicted line was dirty and
// drains to the L2 ahead of the access.
const (
	l1Hit uint8 = 1 << iota
	l1Writeback
)

// drive is the detailed loop: it fills the core's batch buffer from s and
// hands each batch to every back end in turn, until n instructions are
// timed. Every timed run goes through it. The first back end's pass
// resolves the batch's memory operations through the L1 as it reaches
// them (resolve) and records their outcomes; the others read the record.
func (c *Core) drive(s Stream, n uint64, backs []*Backend) {
	if c.batch == nil {
		c.batch = make([]Instr, streamBatch)
		c.l1out = make([]uint8, streamBatch)
		c.victims = make([]mem.Block, streamBatch)
	}
	c.hits, c.misses = 0, 0
	for _, b := range backs {
		b.res = Result{Instructions: n}
	}
	for j := uint64(0); j < n; {
		if c.cancelled() {
			break
		}
		want := n - j
		if want > streamBatch {
			want = streamBatch
		}
		got := s.NextBatch(c.batch[:want])
		if got <= 0 {
			panic("cpu: batch stream made no progress")
		}
		for i, b := range backs {
			b.resolving = i == 0
			b.time(c.batch[:got])
		}
		j += uint64(got)
	}
	for _, b := range backs {
		b.res.Cycles = b.lastRetire
		b.res.L1DHits = c.hits
		b.res.L1DMisses = c.misses
		b.cum.l1dHits += c.hits
		b.cum.l1dMisses += c.misses
	}
}

// resolve is the front end's work for one memory operation of the batch,
// at batch index k: the L1 hit promote or miss install, and the dirty bit
// a store sets or a load fill clears (a store retires through the store
// buffer, so its line is dirty whether it hit or allocated). It records
// the outcome in l1out[k], and a dirty victim in victims[k], for the back
// ends that time the batch after the first; the L1's path depends on no
// back end, so every back end sees the same outcomes.
func (c *Core) resolve(k int, b mem.Block, store bool) (uint8, mem.Block) {
	// One fused set scan covers the hit promote and the miss install.
	idx, hit, victim, evicted := c.l1.TouchOrInsertAt(b)
	if hit {
		c.hits++
		c.l1out[k] = l1Hit
		if store {
			c.dirty[idx] = 1
		}
		return l1Hit, 0
	}
	c.misses++
	out := uint8(0)
	if evicted && c.dirty[idx] != 0 {
		out = l1Writeback
		c.victims[k] = victim
	}
	c.l1out[k] = out
	if store {
		c.dirty[idx] = 1
	} else {
		c.dirty[idx] = 0
	}
	return out, victim
}

// time is the timed loop — fetch, the reorder buffer, the scheduler and
// in-order retirement — over one batch of the front end's. The timing
// epoch continues across calls.
func (b *Backend) time(ins []Instr) {
	rob := uint64(b.sys.ROBEntries)
	sched := uint64(b.sys.SchedulerEntries)
	width := uint64(b.sys.FetchWidth)
	base := b.epochBase
	start := b.epochInstrs
	last := b.lastRetire
	// Ring cursors for instruction i, advanced once per instruction so the
	// loop pays no division: robAt = i%rob, prevAt = (i-1)%rob (the
	// previous instruction's retire slot), backAt = (i-width)%rob,
	// schedAt = i%sched, and i = fetchCycle*width + fetchSlot.
	robAt := start % rob
	prevAt := (start + rob - 1) % rob
	backAt := (start + rob - width%rob) % rob
	schedAt := start % sched
	fetchCycle, fetchSlot := sim.Time(start/width), start%width
	for k, in := range ins {
		i := start + uint64(k)
		// Fetch bandwidth: FetchWidth instructions per cycle, pushed
		// back by accumulated misprediction refills.
		issue := base + fetchCycle + b.fetchPenalty
		// ROB availability: instruction i needs instruction i-ROB
		// retired.
		if i >= rob {
			if t := b.retire[robAt]; t > issue {
				issue = t
				b.cum.robStalls++
			}
		}
		// Scheduler availability: instruction i-sched must have issued.
		if i >= sched {
			if t := b.issued[schedAt]; t > issue {
				issue = t
				b.cum.schedStalls++
			}
		}
		// Execute: operands ready, then completion. A memory operation
		// takes its L1 outcome from the front end — resolved now by the
		// batch's first back end, read back from the record by the others
		// — and the L2 side from access.
		var complete sim.Time
		if !in.IsMem {
			if in.Dep && b.prevComplete > issue {
				issue = b.prevComplete
			}
			complete = issue + 1
		} else {
			var l1 uint8
			var victim mem.Block
			if b.resolving {
				l1, victim = b.fe.resolve(k, in.Block, in.IsStore)
			} else {
				l1, victim = b.fe.l1out[k], b.fe.victims[k]
			}
			if in.IsStore {
				// Stores retire through the store buffer in one cycle; the
				// cache update happens off the critical path.
				b.access(issue, in.Block, true, l1, victim)
				complete = issue + 1
			} else {
				if in.Dep && b.lastLoad > issue {
					issue = b.lastLoad
				}
				complete = b.access(issue, in.Block, false, l1, victim)
				b.lastLoad = complete
			}
		}
		b.issued[schedAt] = issue
		if in.Mispredict {
			b.fetchPenalty += sim.Time(b.sys.PipelineStages)
			b.cum.mispredicts++
		}
		b.prevComplete = complete
		// In-order retirement at fetch width.
		slot := b.retire[prevAt] // previous instruction's retire
		if i == 0 {
			slot = base
		}
		if complete > slot {
			slot = complete
		}
		if i >= width {
			if t := b.retire[backAt] + 1; t > slot {
				slot = t
			}
		}
		b.retire[robAt] = slot
		last = slot
		prevAt = robAt
		if robAt++; robAt == rob {
			robAt = 0
		}
		if backAt++; backAt == rob {
			backAt = 0
		}
		if schedAt++; schedAt == sched {
			schedAt = 0
		}
		if fetchSlot++; fetchSlot == width {
			fetchSlot = 0
			fetchCycle++
		}
	}
	b.epochInstrs = start + uint64(len(ins))
	b.lastRetire = last
}

// resetTiming clears the pipeline timing state a run accumulates. Cache
// contents (L1 array, dirty bits) survive: they are architectural state a
// back-to-back run legitimately inherits.
func (c *Core) resetTiming() {
	c.cancelErr = nil
	c.be.resetTiming()
}

func (b *Backend) resetTiming() {
	for i := range b.retire {
		b.retire[i] = 0
	}
	for i := range b.issued {
		b.issued[i] = 0
	}
	b.outstanding = b.outstanding[:0]
	b.lastLoad = 0
	b.prevComplete = 0
	b.fetchPenalty = 0
	b.epochBase = 0
	b.epochInstrs = 0
	b.lastRetire = 0
	b.cum = counters{}
}

// State is the core's architectural cache state: the L1 array plus its
// per-line dirty bytes (1 for a dirty line, else 0) in the core's own
// layout. Pipeline timing state is deliberately absent — Run resets it on
// entry, so a warm core is fully described by its caches. Fields are
// exported for gob encoding by the on-disk checkpoint store.
type State struct {
	L1    cache.SetAssocState
	Dirty []uint8
}

// Snapshot captures the core's post-warm state. The result shares no memory
// with the core.
func (c *Core) Snapshot() State {
	return State{L1: c.l1.Snapshot(), Dirty: slices.Clone(c.dirty)}
}

// Restore overwrites the core's L1 contents and dirty bits with a captured
// state and clears pipeline timing, exactly the condition a fresh core is
// in after Warm. It rejects states from a differently configured core and
// dirty bytes other than 0 or 1.
func (c *Core) Restore(st State) error {
	if len(st.Dirty) != len(c.dirty) {
		return fmt.Errorf("cpu: restoring %d dirty bits into a %d-line L1", len(st.Dirty), len(c.dirty))
	}
	var wide uint8
	for _, d := range st.Dirty {
		wide |= d
	}
	if wide > 1 {
		return fmt.Errorf("cpu: dirty byte other than 0 or 1")
	}
	if err := c.l1.Restore(st.L1); err != nil {
		return err
	}
	copy(c.dirty, st.Dirty)
	c.resetTiming()
	return nil
}

// access is the L2 side of an L1 access the front end resolved: the
// writeback of a dirty victim, the coherence upgrade of a store, and the
// load miss's trip to the L2. It returns the data-ready time (loads) or
// the update time (stores).
func (b *Backend) access(at sim.Time, blk mem.Block, store bool, l1 uint8, victim mem.Block) sim.Time {
	if l1&l1Hit != 0 {
		if store && b.coh != nil {
			// BusRdX: a store to a possibly shared line must gain
			// exclusive ownership before the write is architecturally
			// visible; the invalidations run off the critical path.
			b.coh.StoreNotify(b.id, blk)
		}
		return at + b.sys.L1Latency
	}
	if l1&l1Writeback != 0 {
		// Dirty writeback to the L2 (the TLC "store" path: written
		// without a tag comparison, fire-and-forget).
		b.l2.Access(at, mem.Request{Block: victim, Type: mem.Store, Core: b.id})
		b.res.L2Stores++
		b.cum.l2Stores++
	}
	if store {
		if b.coh != nil {
			// BusRdX on a store miss: write-allocate keeps the timing-only
			// model, but ownership still transfers in the directory.
			b.coh.StoreNotify(b.id, blk)
		}
		// Write-allocate without fetch: timing-only model.
		return at + b.sys.L1Latency
	}
	// Load miss: bounded by the outstanding-request limit.
	start := b.mshrAdmit(at)
	out := b.l2.Access(start, mem.Request{Block: blk, Type: mem.Load, Core: b.id})
	b.res.L2Loads++
	b.cum.l2Loads++
	b.mshrTrack(out.CompleteAt)
	return out.CompleteAt
}

// mshrAdmit delays a request while all MSHRs are busy and returns its
// admission time.
func (b *Backend) mshrAdmit(at sim.Time) sim.Time {
	// Drop completed entries.
	live := b.outstanding[:0]
	for _, t := range b.outstanding {
		if t > at {
			live = append(live, t)
		}
	}
	b.outstanding = live
	if len(b.outstanding) < b.sys.MaxOutstanding {
		return at
	}
	b.cum.mshrWaits++
	// Wait for the earliest completion, then free that entry.
	earliest := b.outstanding[0]
	for _, t := range b.outstanding[1:] {
		if t < earliest {
			earliest = t
		}
	}
	removed := false
	live = b.outstanding[:0]
	for _, t := range b.outstanding {
		if !removed && t == earliest {
			removed = true
			continue
		}
		live = append(live, t)
	}
	b.outstanding = live
	return earliest
}

// mshrTrack records a new outstanding completion.
func (b *Backend) mshrTrack(completeAt sim.Time) {
	b.outstanding = append(b.outstanding, completeAt)
}
