// Package tlcache implements the Transmission Line Cache family
// (Section 4): the base TLC design — 32 x 512 KB banks at the die edges,
// each bank pair sharing two 8-byte unidirectional transmission-line links
// to a central controller — and the three optimized designs (TLCopt
// 1000/500/350) that stripe blocks across multiple 1 MB banks, ship only a
// 6-bit partial tag to the banks, and resolve full tags at the controller.
//
// Timing model per access:
//
//	controller center --(controller wires)--> line landing --(TL flight,
//	1 cycle)--> bank --(bank access)--> TL flight back --> controller
//
// The base design's uncontended latency is 10-16 cycles (8-cycle bank +
// 2 cycles of flight + 0-6 cycles of controller wiring by landing
// position); the optimized designs are 12-13 cycles flat, their smaller
// controllers nearly eliminating the internal wire delay (Table 2).
package tlcache

import (
	"fmt"

	"tlc/internal/ecc"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/sim"
	"tlc/internal/tline"
)

// pairLinks is the transmission-line bundle one bank pair shares: one
// request (down) link and one response (up) link, each a sim.Resource
// whose occupancy unit is one flit (one cycle at the link's width).
type pairLinks struct {
	down, up sim.Resource
	// geometry is the Table 1 line class this pair uses.
	geometry tline.Geometry
	// z0 caches the extracted characteristic impedance for the energy
	// accounting.
	z0 float64
	// ctrlReq/ctrlResp are the conventional-wire delays inside the
	// controller on each path for this pair's landing position.
	ctrlReq, ctrlResp sim.Time
	// downBusy/upBusy accumulate flit counts for energy accounting.
	downFlits, upFlits uint64
}

// Cache is one member of the TLC family.
type Cache struct {
	l2.Stats
	p      config.TLCParams
	memory l2.Memory

	// groups[g] is the logical complete-block tag/data array of block
	// group g (for the base design, one group per bank).
	groups []*cache.SetAssoc
	// ptags[g] shadows group g's partial tags for the optimized designs'
	// in-bank comparison and multi-match detection.
	ptags []*cache.PartialTags
	// bankPorts[b] is the contended port of physical bank b.
	bankPorts []*cache.Bank
	pairs     []*pairLinks
	sets      int
	// groupBits is log2 of the group count: the width of the group hash.
	groupBits int

	// bankScratch is the reused buffer banksOf writes into; lineScratch is
	// the reused buffer for partial-tag resyncs. Both keep the per-access
	// path allocation-free.
	bankScratch []int
	lineScratch []cache.Line

	// noise, when set, injects line errors checked by end-to-end ECC.
	noise *Noise

	// MultiMatches counts lookups needing the second round trip
	// (Section 4: ~1% of lookups).
	MultiMatches uint64
	// ECCCorrections counts response words repaired in the controller.
	ECCCorrections uint64
	// ECCRetries counts responses with detected-uncorrectable errors,
	// each costing a full extra round trip.
	ECCRetries uint64
	// Writebacks counts victim blocks returned toward memory.
	Writebacks uint64
	// FillsApplied counts memory fills installed.
	FillsApplied uint64

	reg *metrics.Registry
}

// eccUncorrectable aliases the codec's verdict for the retry loop.
const eccUncorrectable = ecc.Uncorrectable

// Request/response flit counts are derived from the per-design link widths.
const addrCmdBits = 22 // set index + 6-bit partial tag + command
const fullAddrBits = 48

// New builds a TLC-family cache for the given design.
func New(d config.Design, memLat sim.Time) *Cache {
	p := config.TLCFor(d)
	groups := p.Groups()
	groupBytes := p.BankBytes * p.BanksPerBlock
	sets := groupBytes / mem.BlockBytes / 4 // 4-way, Table 3
	c := &Cache{
		Stats:       l2.NewStats(),
		p:           p,
		memory:      l2.FlatMemory{Latency: memLat},
		sets:        sets,
		groupBits:   mem.Log2(groups),
		bankScratch: make([]int, 0, p.BanksPerBlock),
		lineScratch: make([]cache.Line, 0, 4),
	}
	for g := 0; g < groups; g++ {
		c.groups = append(c.groups, cache.NewSetAssoc(sets, 4))
		c.ptags = append(c.ptags, cache.NewPartialTags(sets, 1, 4))
	}
	// Physical bank ports: the bank array behind each port holds only a
	// slice of each block, but its set count and access time follow the
	// physical bank geometry.
	bankSets := p.BankBytes / mem.BlockBytes / 4
	for b := 0; b < p.Banks; b++ {
		c.bankPorts = append(c.bankPorts, cache.NewBank(bankSets, 4, p.BankAccess))
	}
	for pr := 0; pr < p.Pairs(); pr++ {
		g := config.LinkGeometry(pr, p.Pairs())
		c.pairs = append(c.pairs, &pairLinks{
			geometry: g,
			z0:       tline.Extract(g).Z0,
			ctrlReq:  c.ctrlReq(pr),
			ctrlResp: c.ctrlResp(pr),
		})
	}
	c.reg = metrics.New()
	c.Stats.Register(c.reg)
	c.reg.CounterFunc("tl.multi_matches", func() uint64 { return c.MultiMatches })
	c.reg.CounterFunc("ecc.corrections", func() uint64 { return c.ECCCorrections })
	c.reg.CounterFunc("ecc.retries", func() uint64 { return c.ECCRetries })
	c.reg.CounterFunc("l2.writebacks", func() uint64 { return c.Writebacks })
	c.reg.CounterFunc("l2.fills", func() uint64 { return c.FillsApplied })
	c.reg.CounterFunc("l2.bank_busy_cycles", func() uint64 { return uint64(c.BankBusyCycles()) })
	c.reg.CounterFunc("tl.down_flits", func() uint64 {
		var n uint64
		for _, pr := range c.pairs {
			n += pr.downFlits
		}
		return n
	})
	c.reg.CounterFunc("tl.up_flits", func() uint64 {
		var n uint64
		for _, pr := range c.pairs {
			n += pr.upFlits
		}
		return n
	})
	c.reg.Gauge("tl.link_utilization", func(now sim.Time) float64 { return c.LinkUtilization(now) })
	c.reg.Gauge("tl.energy_j", func(sim.Time) float64 { return c.NetworkEnergyJ() })
	return c
}

// Metrics implements l2.Instrumented.
func (c *Cache) Metrics() *metrics.Registry { return c.reg }

// ctrlReq spreads the controller-internal request-path wire delay across
// pairs by landing position: the base design's wide controller costs up to
// 3 cycles; the optimized controllers up to CtrlWireMax.
func (c *Cache) ctrlReq(pair int) sim.Time {
	pairs := c.p.Pairs()
	return sim.Time(int(c.p.CtrlWireMax+1) * pair / pairs)
}

// ctrlResp mirrors ctrlReq for the base design; the optimized designs'
// response links land directly at the controller center (their reduced
// line count keeps the landing edge short), so the response path is free.
func (c *Cache) ctrlResp(pair int) sim.Time {
	if c.p.PartialTagInBank {
		return 0
	}
	return c.ctrlReq(pair)
}

// AddLinkMargin widens every transmission-line traversal by extra cycles —
// the ablation for the paper's conservative 40%-of-cycle setup and hold
// margins (Section 4): a design needing even more margin pays this many
// cycles each way.
func (c *Cache) AddLinkMargin(extra sim.Time) { c.p.TLCycles += extra }

// groupOf maps a block to its group and the group-local block id. Group
// selection XOR-folds the bits above the group field into the low bits —
// standard bank hashing — so strided streams (and their own L1 victim
// writebacks, which trail by exactly the L1 capacity) spread across groups
// instead of resonating on one. The mapping stays injective: for a given
// local id, distinct low bits give distinct groups.
func (c *Cache) groupOf(b mem.Block) (g int, local mem.Block) {
	return int(mem.FoldHash(uint64(b), c.groupBits)), b >> uint(c.groupBits)
}

// banksOf reports the physical banks storing group g's blocks. For the
// base design (one bank per block) consecutive groups interleave across
// bank pairs, so sequential address streams spread over all sixteen link
// pairs instead of hammering one; the striped designs already alternate
// pairs by construction.
// The returned slice aliases a scratch buffer reused by the next banksOf
// call; callers iterate it immediately and must not retain it.
func (c *Cache) banksOf(g int) []int {
	n := c.p.BanksPerBlock
	out := c.bankScratch[:0]
	if n == 1 {
		pairs := c.p.Pairs()
		out = append(out, (g%pairs)*2+g/pairs)
	} else {
		for i := 0; i < n; i++ {
			out = append(out, g*n+i)
		}
	}
	c.bankScratch = out
	return out
}

// pairOf reports the bank pair owning physical bank b.
func pairOf(bank int) int { return bank / 2 }

// flitsOf reports the cycles a payload of the given bit count occupies a
// link of the given width.
func flitsOf(bits, width int) sim.Time {
	return sim.Time((bits + width - 1) / width)
}

// loadRespBits is the per-bank response payload for a load hit: the bank's
// data slice plus the high-order tag bits the controller needs for the full
// comparison (optimized designs) or just the slice (base design, full tags
// in bank).
func (c *Cache) loadRespBits() int {
	slice := mem.BlockBytes / c.p.BanksPerBlock * 8
	if c.p.PartialTagInBank {
		return slice + 32
	}
	return slice
}

// storeBits is the per-bank payload of a store or fill: address plus the
// bank's data slice.
func (c *Cache) storeBits() int {
	return fullAddrBits + mem.BlockBytes/c.p.BanksPerBlock*8
}

// Nominal reports the uncontended lookup latency for block b (the
// scheduler's static prediction): bank access + two flights + controller
// wiring for its landing position.
func (c *Cache) Nominal(b mem.Block) sim.Time {
	g, _ := c.groupOf(b)
	pr := pairOf(c.banksOf(g)[0])
	return c.p.BankAccess + 2*c.p.TLCycles + c.pairs[pr].ctrlReq + c.pairs[pr].ctrlResp
}

// NominalRange reports the design's uncontended latency range (Table 2).
func (c *Cache) NominalRange() (min, max sim.Time) {
	min, max = ^sim.Time(0), 0
	for g := 0; g < c.p.Groups(); g++ {
		n := c.Nominal(mem.Block(g))
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}

// Access implements l2.Cache.
func (c *Cache) Access(at sim.Time, req mem.Request) l2.Outcome {
	g, local := c.groupOf(req.Block)
	if req.Type == mem.Store {
		present := c.groups[g].Lookup(local)
		c.write(at, g, local)
		c.RecordStore(present, c.p.BanksPerBlock)
		return l2.Outcome{Hit: present, ResolveAt: at, CompleteAt: at, Predictable: true, BanksAccessed: c.p.BanksPerBlock}
	}

	hit := c.groups[g].Lookup(local)
	// One partial-tag comparison serves both decisions: the in-bank
	// comparators report a single match count per lookup.
	matches := 0
	if c.p.PartialTagInBank {
		matches = c.ptags[g].MatchCount(local, 0)
	}
	multi := matches > 1
	partialMatch := hit || matches > 0

	resolve := c.roundTrip(at, g, partialMatch)
	if multi {
		// Multiple partial-tag matches: the controller receives every
		// matching entry's tag bits, resolves the full comparison, and
		// requests the specific block with a second round trip.
		c.MultiMatches++
		resolve = c.roundTrip(resolve, g, true)
	}
	retried := false
	if c.noise != nil && partialMatch {
		// End-to-end ECC check on the data response. Corrections are
		// free (inline in the controller); a detected-uncorrectable word
		// forces a re-request, and the retry is checked again.
		for {
			fate, corrected := c.noise.responseFate(req.Block, resolve, c.loadRespBits()*c.p.BanksPerBlock)
			c.ECCCorrections += uint64(corrected)
			if fate != eccUncorrectable {
				break
			}
			c.ECCRetries++
			retried = true
			resolve = c.roundTrip(resolve, g, true)
		}
	}
	if hit {
		c.groups[g].Touch(local)
	}

	nominal := c.Nominal(req.Block)
	predictable := resolve-at == nominal && !retried
	out := l2.Outcome{Hit: hit, ResolveAt: resolve, CompleteAt: resolve, Predictable: predictable, BanksAccessed: c.p.BanksPerBlock}
	if !hit {
		out.CompleteAt = c.memory.Fetch(resolve, req.Block)
		c.fill(out.CompleteAt, g, local)
	}
	c.RecordLoad(uint64(resolve-at), hit, predictable, c.p.BanksPerBlock)
	return out
}

// roundTrip times one request/response exchange with group g's banks and
// returns the cycle the critical response beat reaches the controller
// center. withData selects full data-slice responses (hits and partial
// matches) versus single-flit miss acknowledgements.
//
// Striped data returns critical-word-first: the bank holding the requested
// word wins its pair's link arbitration, so the resolve time tracks the
// first bank's response; the remaining slices stream behind it and are
// accounted as link occupancy.
func (c *Cache) roundTrip(at sim.Time, g int, withData bool) sim.Time {
	reqFlits := flitsOf(addrCmdBits, c.p.DownBits)
	respBits := 8 // miss acknowledgement
	if withData {
		respBits = c.loadRespBits()
	}
	respFlits := flitsOf(respBits, c.p.UpBits)

	var resolve sim.Time
	for i, b := range c.banksOf(g) {
		pr := c.pairs[pairOf(b)]
		start := pr.down.Reserve(at+pr.ctrlReq, reqFlits)
		pr.downFlits += uint64(reqFlits)
		// The bank starts decoding when the head flit lands; trailing
		// request flits pipeline into the array access.
		arrive := start + c.p.TLCycles
		done := c.bankPorts[b].Reserve(arrive)
		// On a miss acknowledgement only the critical bank replies — every
		// bank's partial-tag comparison gives the same answer, so the
		// others' responses are suppressed.
		if !withData && i > 0 {
			continue
		}
		upStart := pr.up.Reserve(done, respFlits)
		pr.upFlits += uint64(respFlits)
		beat := upStart + c.p.TLCycles + pr.ctrlResp
		if i == 0 {
			resolve = beat
		}
	}
	return resolve
}

// write performs a store or fill data movement into group g's banks:
// address plus data slice down each involved pair, no response.
func (c *Cache) write(at sim.Time, g int, local mem.Block) {
	flits := flitsOf(c.storeBits(), c.p.DownBits)
	for _, b := range c.banksOf(g) {
		pr := c.pairs[pairOf(b)]
		start := pr.down.Reserve(at+pr.ctrlReq, flits)
		pr.downFlits += uint64(flits)
		arrive := start + c.p.TLCycles + (flits - 1)
		c.bankPorts[b].Reserve(arrive)
	}
	victim, evicted := c.groups[g].Insert(local)
	if evicted {
		c.writeback(at, g, victim)
	}
	c.syncPTag(g, local)
}

// fill installs a memory fill, reusing the write path.
func (c *Cache) fill(at sim.Time, g int, local mem.Block) {
	c.FillsApplied++
	c.write(at, g, local)
}

// writeback streams an evicted block's slices up to the controller on
// their way to memory.
func (c *Cache) writeback(at sim.Time, g int, victim mem.Block) {
	c.Writebacks++
	flits := flitsOf(mem.BlockBytes/c.p.BanksPerBlock*8, c.p.UpBits)
	for _, b := range c.banksOf(g) {
		pr := c.pairs[pairOf(b)]
		pr.up.Reserve(at, flits)
		pr.upFlits += uint64(flits)
	}
	c.syncPTag(g, victim)
}

// syncPTag resynchronizes the partial-tag shadow of the set holding local.
func (c *Cache) syncPTag(g int, local mem.Block) {
	if !c.p.PartialTagInBank {
		return
	}
	set := local.SetIndex(c.sets)
	c.lineScratch = c.groups[g].AppendLinesIn(c.lineScratch[:0], set)
	c.ptags[g].SyncSet(set, 0, c.lineScratch)
}

// Warm implements l2.Cache.
func (c *Cache) Warm(b mem.Block) {
	g, local := c.groupOf(b)
	c.groups[g].Insert(local)
	c.syncPTag(g, local)
}

// WarmBulk implements l2.Warmer: the fused warm kernel. Each block's
// install and partial-tag resync match Warm exactly, so state evolution is
// identical to per-block Warm calls in slice order.
func (c *Cache) WarmBulk(blocks []mem.Block) {
	sync := c.p.PartialTagInBank
	assoc := c.groups[0].Assoc()
	for _, b := range blocks {
		g, local := c.groupOf(b)
		// TouchOrInsertAt leaves the group array exactly as Insert would,
		// in one set scan instead of Insert's find-then-place pair.
		idx, hit, _, _ := c.groups[g].TouchOrInsertAt(local)
		if hit || !sync {
			// A hit only promotes recency, which the shadow does not
			// track: the set's lines — and so its shadow — are unchanged.
			continue
		}
		// A warm install mutates exactly one way, the one TouchOrInsertAt
		// filled, so rewriting that way's shadow entry leaves the partial
		// tags in the state a full SyncSet of the set would.
		c.ptags[g].Install(local, 0, idx%assoc)
	}
}

// Contains implements l2.Cache.
func (c *Cache) Contains(b mem.Block) bool {
	g, local := c.groupOf(b)
	return c.groups[g].Lookup(local)
}

// LinkUtilization reports the average busy fraction across every
// transmission-line link (both directions, all pairs) over [0,now] — the
// Figure 7 metric. Like sim.Resource.Utilization it clamps at 1:
// reservations extending past `now` can push total occupancy beyond the
// window, but a link cannot be more than fully busy.
func (c *Cache) LinkUtilization(now sim.Time) float64 {
	if now == 0 || len(c.pairs) == 0 {
		return 0
	}
	var busy sim.Time
	for _, pr := range c.pairs {
		busy += pr.down.BusyCycles() + pr.up.BusyCycles()
	}
	u := float64(busy) / (float64(now) * float64(2*len(c.pairs)))
	if u > 1 {
		u = 1
	}
	return u
}

// NetworkEnergyJ reports the dynamic energy dissipated on the transmission
// lines: every flit drives its link's lines for one cycle at the
// voltage-mode per-bit energy, with half the bits carrying pulses on
// average.
func (c *Cache) NetworkEnergyJ() float64 {
	const activity = 0.25
	var e float64
	for _, pr := range c.pairs {
		perBit := tline.EnergyPerBitJ(pr.z0)
		e += float64(pr.downFlits) * float64(c.p.DownBits) * activity * perBit
		e += float64(pr.upFlits) * float64(c.p.UpBits) * activity * perBit
	}
	return e
}

// BankBusyCycles sums port occupancy over all physical banks.
func (c *Cache) BankBusyCycles() sim.Time {
	var t sim.Time
	for _, b := range c.bankPorts {
		t += b.PortBusyCycles()
	}
	return t
}

// String names the design.
func (c *Cache) String() string { return fmt.Sprintf("%v", c.p.Design) }

// L2Stats exposes the embedded common statistics.
func (c *Cache) L2Stats() *l2.Stats { return &c.Stats }

// SetMemory replaces the flat Table 3 memory with another model.
func (c *Cache) SetMemory(m l2.Memory) { c.memory = m }
