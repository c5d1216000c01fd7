package nuca

import (
	"math/bits"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/noc"
	"tlc/internal/sim"
)

// DNUCA is Kim et al.'s Dynamic NUCA [24] as the paper evaluates it:
// 256 x 64 KB banks in a 16x16 grid, one bank set per column (16 banks x
// 2 ways = 32-way aggregate associativity, the paper's "+30-way"), a
// 6-bit partial-tag structure at the controller, and gradual promotion.
//
// Access protocol (Section 2):
//
//   - Probe the two closest banks of the block's bank set and the partial
//     tag structure in parallel.
//   - A hit in the closest banks is a close hit — the fast path.
//   - Otherwise the partial tags name the candidate banks; a multicast
//     search probes them. No candidates is a fast miss (declared once the
//     close banks confirm).
//   - Fills from memory insert at the farthest bank of the bank set;
//     every load hit promotes the block one bank closer, swapping with
//     the occupant — the frequency-based placement that protects hot data
//     from streaming data (the equake discussion in Section 6.1).
//
// DNUCAAblations are the policy knobs for the ablation studies
// (DESIGN.md, section 5). The zero value is the paper's design.
type DNUCAAblations struct {
	// DisablePromotion freezes block placement: hits no longer migrate
	// blocks toward the controller, isolating the value of dynamic
	// placement.
	DisablePromotion bool
	// DisablePartialTags removes the controller partial-tag structure: a
	// close miss must search every remaining bank of the bank set, and
	// fast misses disappear — the cost the structure's complexity buys
	// back.
	DisablePartialTags bool
}

type DNUCA struct {
	l2.Stats
	// Abl holds the ablation knobs; set before use.
	Abl DNUCAAblations
	// OnWriteback, when set, observes every block evicted toward memory
	// (testing and analysis hook).
	OnWriteback func(victim mem.Block)
	p           config.NUCAParams
	mesh        *noc.Mesh
	memory      l2.Memory
	// banks[col][row]
	banks [][]*cache.Bank
	// ptags[col] shadows the 16 row-banks of one bank set.
	ptags []*cache.PartialTags
	sets  int
	// setBits is log2 of the bank-set count: the width of the bank-set
	// hash and of the field local strips.
	setBits int
	// lineScratch is the reused buffer for partial-tag resyncs.
	lineScratch []cache.Line

	// Design-specific counters (Table 6).
	CloseHits  stats64
	Promotions stats64
	Insertions stats64
	FastMisses stats64
	Searches   stats64
	Writebacks stats64

	reg *metrics.Registry
}

// stats64 is a plain counter; a named type keeps the field list readable.
type stats64 uint64

// Inc increments the counter.
func (s *stats64) Inc() { *s++ }

// Value reports the count.
func (s stats64) Value() uint64 { return uint64(s) }

const (
	closeRows = 2
	// ptagLookupBusy is the pipeline occupancy ahead of the partial-tag
	// array access.
	ptagLookupBusy = 1
)

// NewDNUCA builds the DNUCA design with the given memory latency.
func NewDNUCA(memLat sim.Time) *DNUCA {
	p := config.NUCAFor(config.DNUCA)
	d := &DNUCA{
		Stats:   l2.NewStats(),
		p:       p,
		mesh:    noc.New(p.Mesh),
		memory:  l2.FlatMemory{Latency: memLat},
		sets:    p.BankBytes / mem.BlockBytes / p.BankAssoc,
		setBits: mem.Log2(p.BankSets),
		reg:     metrics.New(),
	}
	for c := 0; c < p.Mesh.Cols; c++ {
		col := make([]*cache.Bank, p.Mesh.Rows)
		for r := 0; r < p.Mesh.Rows; r++ {
			col[r] = cache.NewBank(d.sets, p.BankAssoc, p.BankAccess)
		}
		d.banks = append(d.banks, col)
		d.ptags = append(d.ptags, cache.NewPartialTags(d.sets, p.Mesh.Rows, p.BankAssoc))
	}
	d.Stats.Register(d.reg)
	// stats64.Value has a value receiver, so a method value would capture a
	// zero copy at registration; closures read the live fields.
	d.reg.CounterFunc("l2.close_hits", func() uint64 { return uint64(d.CloseHits) })
	d.reg.CounterFunc("l2.promotions", func() uint64 { return uint64(d.Promotions) })
	d.reg.CounterFunc("l2.insertions", func() uint64 { return uint64(d.Insertions) })
	d.reg.CounterFunc("l2.fast_misses", func() uint64 { return uint64(d.FastMisses) })
	d.reg.CounterFunc("l2.searches", func() uint64 { return uint64(d.Searches) })
	d.reg.CounterFunc("l2.writebacks", func() uint64 { return uint64(d.Writebacks) })
	d.reg.CounterFunc("l2.bank_busy_cycles", func() uint64 { return uint64(d.BankBusyCycles()) })
	d.reg.Gauge("l2.close_hit_pct", func(sim.Time) float64 { return d.CloseHitPct() })
	d.reg.Gauge("l2.promotes_per_insert", func(sim.Time) float64 { return d.PromotesPerInsert() })
	d.mesh.RegisterMetrics(d.reg)
	return d
}

// Metrics implements l2.Instrumented.
func (d *DNUCA) Metrics() *metrics.Registry { return d.reg }

// Mesh exposes the interconnect for power/utilization accounting.
func (d *DNUCA) Mesh() *noc.Mesh { return d.mesh }

// Params exposes the design parameters.
func (d *DNUCA) Params() config.NUCAParams { return d.p }

// colOf maps a block to its bank set (one per column). Bank-set selection
// XOR-folds higher address bits into the low bits (bank hashing), matching
// the other designs.
func (d *DNUCA) colOf(b mem.Block) int {
	return int(mem.FoldHash(uint64(b), d.setBits))
}

// local strips the bank-set bits for per-column set indexing.
func (d *DNUCA) local(b mem.Block) mem.Block {
	return b >> uint(d.setBits)
}

// unlocal reconstructs the global block from a column-local id by
// inverting the bank-set hash.
func (d *DNUCA) unlocal(local mem.Block, col int) mem.Block {
	low := uint64(col) ^ mem.FoldHash(uint64(local), d.setBits)
	return local<<uint(d.setBits) | mem.Block(low)
}

// findRow reports which row-bank of the column currently holds the block,
// or -1, together with the bank set's partial-tag masks (one bit per row):
// match names the rows with a way whose partial tag matches, free the rows
// with a free way in the block's set.
//
// The functional lookup uses the shadow as an exact prefilter. The shadow
// is kept consistent with the arrays, so the row holding the block always
// matches, and the lowest matching row whose array holds the block is the
// lowest row holding it — what a probe of every row would find. This is
// simulator bookkeeping with no timing of its own; the modeled search is
// timed in Access.
func (d *DNUCA) findRow(col int, local mem.Block) (row int, match, free uint64) {
	match, free = d.ptags[col].Masks(local)
	for m := match; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		if d.banks[col][r].Array.Lookup(local) {
			return r, match, free
		}
	}
	return -1, match, free
}

// farCandidates reports, one bit per row, the banks beyond the close rows
// a far search probes: those whose partial tags match, or every one when
// the structure is ablated away.
func (d *DNUCA) farCandidates(match uint64) uint64 {
	if d.Abl.DisablePartialTags {
		match = 1<<uint(d.p.Mesh.Rows) - 1
	}
	return match &^ (1<<closeRows - 1)
}

// freeRow is the warm-up insertion row for a block in no row: the farthest
// row with a free way in the block's set, else the farthest row.
func (d *DNUCA) freeRow(free uint64) int {
	if free == 0 {
		return d.farRow()
	}
	return 63 - bits.LeadingZeros64(free)
}

// farRow is the insertion row: the farthest bank from the controller.
func (d *DNUCA) farRow() int { return d.p.Mesh.Rows - 1 }

// syncPTag resynchronizes the partial-tag shadow of one (column,row) set.
// It reuses a scratch line buffer: resyncs run on every fill, migration,
// and promotion, and a fresh slice per call dominated the allocation
// profile.
func (d *DNUCA) syncPTag(col, row int, set int) {
	d.lineScratch = d.banks[col][row].Array.AppendLinesIn(d.lineScratch[:0], set)
	d.ptags[col].SyncSet(set, row, d.lineScratch)
}

// nominalClose reports the uncontended close-hit latency at the given row.
func (d *DNUCA) nominalClose(col, row int) sim.Time {
	return d.p.BankAccess + d.mesh.UncontendedRoundTrip(col, row)
}

// nominalFastMiss reports the uncontended fast-miss latency: the partial
// tags rule out every bank, but the miss is declared once the slower of
// the two close probes confirms.
func (d *DNUCA) nominalFastMiss(col int) sim.Time {
	n := d.nominalClose(col, closeRows-1)
	if pt := sim.Time(ptagLookupBusy) + d.p.PTagLatency; pt > n {
		return pt
	}
	return n
}

// NominalRange reports the design's uncontended latency range (Table 2).
func (d *DNUCA) NominalRange() (min, max sim.Time) {
	min, max = ^sim.Time(0), 0
	for c := 0; c < d.p.Mesh.Cols; c++ {
		for r := 0; r < d.p.Mesh.Rows; r++ {
			n := d.nominalClose(c, r)
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
	}
	return min, max
}

// Access implements l2.Cache.
func (d *DNUCA) Access(at sim.Time, req mem.Request) l2.Outcome {
	col := d.colOf(req.Block)
	local := d.local(req.Block)

	if req.Type == mem.Store {
		return d.store(at, col, local)
	}

	// Probe the two closest banks and the partial tags in parallel. The
	// close probe is a single multicast request: the row-0 bank snoops the
	// message as it passes on its way to row 1; each bank responds with
	// its own message.
	respArrive := make([]sim.Time, closeRows)
	arriveLast := d.mesh.Route(at, col, closeRows-1, reqBytes, noc.ToBank)
	arrive := make([]sim.Time, closeRows)
	for r := closeRows - 1; r >= 0; r-- {
		arrive[r] = arriveLast
		for i := r; i < closeRows-1; i++ {
			arrive[r] -= d.p.Mesh.VertReqLat[i]
		}
	}
	// A block lives in at most one row, so a close bank returns data
	// exactly when it is the block's row.
	actualRow, match, _ := d.findRow(col, local)
	// Responses issue in arrival order (row 0 responds first); link
	// reservations must be made in time order.
	for r := 0; r < closeRows; r++ {
		done := d.banks[col][r].Reserve(arrive[r])
		bytes := reqBytes
		if r == actualRow {
			bytes = dataBytes
		}
		respArrive[r] = d.mesh.Route(done, col, r, bytes, noc.ToController)
	}
	// The partial-tag structure is modeled as fully pipelined (banked in a
	// real implementation): fixed latency, no port contention. This
	// idealizes DNUCA slightly; the paper's complexity argument against
	// the structure is about synchronization, which the functional model
	// keeps exact.
	ptagDone := at + sim.Time(ptagLookupBusy) + d.p.PTagLatency

	if actualRow >= 0 && actualRow < closeRows {
		// Close hit.
		resolve := respArrive[actualRow]
		d.banks[col][actualRow].Array.Touch(local)
		predictable := resolve-at == d.nominalClose(col, actualRow)
		d.CloseHits.Inc()
		if actualRow > 0 && !d.Abl.DisablePromotion {
			d.promote(resolve, col, actualRow, local)
		}
		d.RecordLoad(uint64(resolve-at), true, predictable, closeRows)
		return l2.Outcome{Hit: true, ResolveAt: resolve, CompleteAt: resolve, Predictable: predictable, BanksAccessed: closeRows}
	}

	// Partial tags name the remaining candidates; without them, every
	// remaining bank of the bank set must be searched.
	cands := d.farCandidates(match)
	if cands == 0 {
		// Fast miss: nothing beyond the close banks can match; declared
		// when the slower close probe and the tag check have both
		// resolved.
		resolve := ptagDone
		for _, t := range respArrive {
			if t > resolve {
				resolve = t
			}
		}
		d.FastMisses.Inc()
		predictable := resolve-at == d.nominalFastMiss(col)
		complete := d.memory.Fetch(resolve, req.Block)
		d.fill(complete, col, local)
		d.RecordLoad(uint64(resolve-at), false, predictable, closeRows)
		return l2.Outcome{Hit: false, ResolveAt: resolve, CompleteAt: complete, Predictable: predictable, BanksAccessed: closeRows}
	}

	// Multicast search of the candidate banks, launched once the partial
	// tags have been read.
	d.Searches.Inc()
	banksTouched := closeRows + bits.OnesCount64(cands)
	var resolve sim.Time
	hit := false
	var worst sim.Time
	for _, t := range respArrive {
		if t > worst {
			worst = t
		}
	}
	for m := cands; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		arrive := d.mesh.Route(ptagDone, col, r, reqBytes, noc.ToBank)
		done := d.banks[col][r].Reserve(arrive)
		bytes := reqBytes
		if r == actualRow {
			bytes = dataBytes
		}
		resp := d.mesh.Route(done, col, r, bytes, noc.ToController)
		if r == actualRow {
			hit = true
			resolve = resp
		}
		if resp > worst {
			worst = resp
		}
	}
	if !hit {
		resolve = worst // every candidate was a partial-tag false positive
	}

	if hit {
		d.banks[col][actualRow].Array.Touch(local)
		if !d.Abl.DisablePromotion {
			d.promote(resolve, col, actualRow, local)
		}
		d.RecordLoad(uint64(resolve-at), true, false, banksTouched)
		return l2.Outcome{Hit: true, ResolveAt: resolve, CompleteAt: resolve, BanksAccessed: banksTouched}
	}
	complete := d.memory.Fetch(resolve, req.Block)
	d.fill(complete, col, local)
	d.RecordLoad(uint64(resolve-at), false, false, banksTouched)
	return l2.Outcome{Hit: false, ResolveAt: resolve, CompleteAt: complete, BanksAccessed: banksTouched}
}

// store writes a block: into its resident bank if present, else allocated
// at the insertion bank. Fire-and-forget for the processor.
func (d *DNUCA) store(at sim.Time, col int, local mem.Block) l2.Outcome {
	row, _, _ := d.findRow(col, local)
	if row < 0 {
		d.fill(at, col, local)
		d.RecordStore(false, 1)
		return l2.Outcome{Hit: false, ResolveAt: at, CompleteAt: at, Predictable: true, BanksAccessed: 1}
	}
	arrive := d.mesh.Route(at, col, row, dataBytes, noc.ToBank)
	d.banks[col][row].Reserve(arrive)
	d.banks[col][row].Array.Touch(local)
	d.RecordStore(true, 1)
	return l2.Outcome{Hit: true, ResolveAt: at, CompleteAt: at, Predictable: true, BanksAccessed: 1}
}

// promote migrates a block one row closer to the controller, swapping with
// the victim in the destination set, and updates the partial tags — the
// bookkeeping whose synchronization the paper highlights as DNUCA's
// complexity cost.
func (d *DNUCA) promote(at sim.Time, col, fromRow int, local mem.Block) {
	toRow := fromRow - 1
	from := d.banks[col][fromRow]
	to := d.banks[col][toRow]

	// Timing: read the block out, move it up, write it; the displaced
	// victim makes the reverse trip.
	t := from.Reserve(at)
	t = d.mesh.RouteBetween(t, col, fromRow, toRow, dataBytes)
	t = to.Reserve(t)
	t = d.mesh.RouteBetween(t, col, toRow, fromRow, dataBytes)
	from.Reserve(t)

	// Functional swap.
	set := local.SetIndex(d.sets)
	from.Array.Remove(local)
	victim, evicted := to.Array.Insert(local)
	if evicted {
		from.Array.Insert(victim)
	}
	d.syncPTag(col, fromRow, set)
	d.syncPTag(col, toRow, set)
	d.Promotions.Inc()
}

// fill installs a block at the farthest bank of its bank set, evicting and
// writing back the victim if the set is full.
func (d *DNUCA) fill(at sim.Time, col int, local mem.Block) {
	row := d.farRow()
	bank := d.banks[col][row]
	arrive := d.mesh.Route(at, col, row, dataBytes, noc.ToBank)
	done := bank.Reserve(arrive)
	victim, evicted := bank.Array.Insert(local)
	if evicted {
		d.mesh.Route(done, col, row, dataBytes, noc.ToController)
		d.Writebacks.Inc()
		if d.OnWriteback != nil {
			d.OnWriteback(d.unlocal(victim, col))
		}
	}
	d.syncPTag(col, row, local.SetIndex(d.sets))
	d.Insertions.Inc()
}

// Warm implements l2.Cache: the functional load path with no timing, so
// warm-up reaches the same steady-state placement the timed run would.
// WarmBulk implements l2.Warmer. DNUCA's warm placement is inherently
// stateful per block (row search, free-way scan, promotion), so the bulk
// kernel only amortizes the interface dispatch; state evolution is exactly
// per-block Warm in slice order.
func (d *DNUCA) WarmBulk(blocks []mem.Block) {
	for _, b := range blocks {
		d.Warm(b)
	}
}

func (d *DNUCA) Warm(b mem.Block) {
	col := d.colOf(b)
	local := d.local(b)
	row, _, free := d.findRow(col, local)
	if row < 0 {
		// Functional insert: the farthest row with a free way, so a
		// full-footprint pre-warm fills each column from the tail inward
		// (approximating the placement gradient a long warm-up leaves);
		// once the column's set is full this degenerates to the paper's
		// insert-far-with-eviction.
		set := local.SetIndex(d.sets)
		target := d.freeRow(free)
		d.banks[col][target].Array.Insert(local)
		d.syncPTag(col, target, set)
		return
	}
	d.banks[col][row].Array.Touch(local)
	if row > 0 && !d.Abl.DisablePromotion {
		// Accelerated functional promotion: warm-up moves a hit block
		// halfway to the controller rather than one row, reaching the
		// same frequency-ordered fixed point the paper's billion-
		// instruction warm-up converges to in far fewer passes.
		set := local.SetIndex(d.sets)
		from := d.banks[col][row]
		to := d.banks[col][row/2]
		from.Array.Remove(local)
		victim, evicted := to.Array.Insert(local)
		if evicted {
			from.Array.Insert(victim)
		}
		d.syncPTag(col, row, set)
		d.syncPTag(col, row/2, set)
	}
}

// Contains implements l2.Cache.
func (d *DNUCA) Contains(b mem.Block) bool {
	row, _, _ := d.findRow(d.colOf(b), d.local(b))
	return row >= 0
}

// PromotesPerInsert reports the Table 6 promotes/inserts ratio. With no
// insertions in the measured window (the in-cache SPECint benchmarks) the
// ratio is effectively unbounded; report the promotion count itself, as a
// single insert would.
func (d *DNUCA) PromotesPerInsert() float64 {
	if d.Insertions == 0 {
		return float64(d.Promotions)
	}
	return float64(d.Promotions) / float64(d.Insertions)
}

// CloseHitPct reports close hits as a percentage of loads (Table 6).
func (d *DNUCA) CloseHitPct() float64 {
	loads := d.Loads.Value()
	if loads == 0 {
		return 0
	}
	return 100 * float64(d.CloseHits) / float64(loads)
}

// BankBusyCycles sums port occupancy over all banks.
func (d *DNUCA) BankBusyCycles() sim.Time {
	var t sim.Time
	for _, col := range d.banks {
		for _, b := range col {
			t += b.PortBusyCycles()
		}
	}
	return t
}

// L2Stats exposes the embedded common statistics.
func (d *DNUCA) L2Stats() *l2.Stats { return &d.Stats }

// SetMemory replaces the flat Table 3 memory with another model.
func (d *DNUCA) SetMemory(m l2.Memory) { d.memory = m }
