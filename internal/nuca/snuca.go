// Package nuca implements the paper's two baseline cache designs: SNUCA2,
// the statically partitioned NUCA with a 2-D grid interconnect, and DNUCA,
// Kim et al.'s dynamic NUCA with bank sets, block migration, and a
// controller partial-tag structure [24]. Both run over the conventional
// mesh in package noc.
package nuca

import (
	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/noc"
	"tlc/internal/sim"
)

// Message payload sizes, bytes. Requests carry the block address and
// command; data messages carry the 64-byte block plus address/command
// overhead.
const (
	reqBytes  = 8
	dataBytes = mem.BlockBytes + 8
)

// SNUCA is the SNUCA2 design: 32 x 512 KB statically mapped banks
// (Table 2: 9-32 cycle uncontended latency, 8-cycle banks).
type SNUCA struct {
	l2.Stats
	p      config.NUCAParams
	mesh   *noc.Mesh
	banks  []*cache.Bank
	memory l2.Memory
	// bankBits is log2 of the bank count: the width of the bank hash.
	bankBits int

	// Writebacks counts victim blocks sent back toward memory.
	Writebacks uint64

	reg *metrics.Registry
}

// NewSNUCA builds the SNUCA2 design with the given memory latency.
func NewSNUCA(memLat sim.Time) *SNUCA {
	p := config.NUCAFor(config.SNUCA2)
	s := &SNUCA{
		Stats:    l2.NewStats(),
		p:        p,
		mesh:     noc.New(p.Mesh),
		memory:   l2.FlatMemory{Latency: memLat},
		bankBits: mem.Log2(p.Banks),
		reg:      metrics.New(),
	}
	sets := p.BankBytes / mem.BlockBytes / p.BankAssoc
	for i := 0; i < p.Banks; i++ {
		s.banks = append(s.banks, cache.NewBank(sets, p.BankAssoc, p.BankAccess))
	}
	s.Stats.Register(s.reg)
	s.reg.CounterFunc("l2.writebacks", func() uint64 { return s.Writebacks })
	s.reg.CounterFunc("l2.bank_busy_cycles", func() uint64 { return uint64(s.BankBusyCycles()) })
	s.mesh.RegisterMetrics(s.reg)
	return s
}

// Metrics implements l2.Instrumented.
func (s *SNUCA) Metrics() *metrics.Registry { return s.reg }

// Mesh exposes the interconnect for power/utilization accounting.
func (s *SNUCA) Mesh() *noc.Mesh { return s.mesh }

// Params exposes the design parameters.
func (s *SNUCA) Params() config.NUCAParams { return s.p }

// bankOf maps a block to its static bank and grid position. The low block
// bits select the bank; the bank index linearizes column-major so adjacent
// banksets spread across columns.
// Bank selection XOR-folds higher address bits into the bank field (bank
// hashing), decorrelating strided streams and their L1-victim writebacks
// from bank conflicts.
func (s *SNUCA) bankOf(b mem.Block) (idx, col, row int) {
	idx = int(mem.FoldHash(uint64(b), s.bankBits))
	col = idx % s.p.Mesh.Cols
	row = idx / s.p.Mesh.Cols
	return idx, col, row
}

// local strips the bank-select bits so bank arrays index sets correctly.
func (s *SNUCA) local(b mem.Block) mem.Block {
	return b >> uint(s.bankBits)
}

// unlocal reconstructs the global block from a bank-local id: invert the
// XOR fold given the bank index.
func (s *SNUCA) unlocal(local mem.Block, bankIdx int) mem.Block {
	low := uint64(bankIdx) ^ mem.FoldHash(uint64(local), s.bankBits)
	return local<<uint(s.bankBits) | mem.Block(low)
}

// Nominal reports the uncontended lookup latency of the bank holding b —
// the latency a scheduler would statically predict.
func (s *SNUCA) Nominal(b mem.Block) sim.Time {
	_, col, row := s.bankOf(b)
	return s.p.BankAccess + s.mesh.UncontendedRoundTrip(col, row)
}

// NominalRange reports the design's uncontended latency range (Table 2).
func (s *SNUCA) NominalRange() (min, max sim.Time) {
	min, max = ^sim.Time(0), 0
	for i := 0; i < s.p.Banks; i++ {
		_, col, row := s.bankOf(mem.Block(i))
		n := s.p.BankAccess + s.mesh.UncontendedRoundTrip(col, row)
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
func (s *SNUCA) Access(at sim.Time, req mem.Request) l2.Outcome {
	idx, col, row := s.bankOf(req.Block)
	bank := s.banks[idx]
	local := s.local(req.Block)

	if req.Type == mem.Store {
		// Write the block into its bank: request + data down, no reply.
		arrive := s.mesh.Route(at, col, row, dataBytes, noc.ToBank)
		done := bank.Reserve(arrive)
		present := bank.Array.Lookup(local)
		victim, evicted := bank.Array.Insert(local)
		if evicted {
			s.writeback(done, col, row, victim, idx)
		}
		s.RecordStore(present, 1)
		return l2.Outcome{Hit: present, ResolveAt: at, CompleteAt: at, Predictable: true, BanksAccessed: 1}
	}

	arrive := s.mesh.Route(at, col, row, reqBytes, noc.ToBank)
	done := bank.Reserve(arrive)
	hit := bank.Array.Access(local)
	respBytes := reqBytes
	if hit {
		respBytes = dataBytes
	}
	resolve := s.mesh.Route(done, col, row, respBytes, noc.ToController)
	nominal := s.Nominal(req.Block)
	predictable := resolve-at == nominal
	out := l2.Outcome{Hit: hit, ResolveAt: resolve, CompleteAt: resolve, Predictable: predictable, BanksAccessed: 1}
	if !hit {
		out.CompleteAt = s.memory.Fetch(resolve, req.Block)
		s.fill(out.CompleteAt, req.Block)
	}
	s.RecordLoad(uint64(resolve-at), hit, predictable, 1)
	return out
}

// fill installs a block fetched from memory into its static bank, routing
// the fill data and any victim writeback.
func (s *SNUCA) fill(at sim.Time, b mem.Block) {
	idx, col, row := s.bankOf(b)
	bank := s.banks[idx]
	arrive := s.mesh.Route(at, col, row, dataBytes, noc.ToBank)
	done := bank.Reserve(arrive)
	victim, evicted := bank.Array.Insert(s.local(b))
	if evicted {
		s.writeback(done, col, row, victim, idx)
	}
}

// writeback routes an evicted block back to the controller on its way to
// memory.
func (s *SNUCA) writeback(at sim.Time, col, row int, victim mem.Block, bankIdx int) {
	_ = s.unlocal(victim, bankIdx) // the block identity; memory is not modeled further
	s.mesh.Route(at, col, row, dataBytes, noc.ToController)
	s.Writebacks++
}

// Warm implements l2.Cache: install without timing.
func (s *SNUCA) Warm(b mem.Block) {
	idx, _, _ := s.bankOf(b)
	s.banks[idx].Array.Insert(s.local(b))
}

// WarmBulk implements l2.Warmer: the fused warm kernel. One dispatch
// installs the whole batch, skipping the grid position bankOf also
// computes. State evolution is identical to per-block Warm calls in slice
// order.
func (s *SNUCA) WarmBulk(blocks []mem.Block) {
	bits := s.bankBits
	for _, b := range blocks {
		idx := int(mem.FoldHash(uint64(b), bits))
		// TouchOrInsertAt leaves the array exactly as Insert would, in one
		// set scan instead of Insert's find-then-place pair.
		s.banks[idx].Array.TouchOrInsertAt(b >> uint(bits))
	}
}

// Contains implements l2.Cache.
func (s *SNUCA) Contains(b mem.Block) bool {
	idx, _, _ := s.bankOf(b)
	return s.banks[idx].Array.Lookup(s.local(b))
}

// BankBusyCycles sums port occupancy over all banks.
func (s *SNUCA) BankBusyCycles() sim.Time {
	var t sim.Time
	for _, b := range s.banks {
		t += b.PortBusyCycles()
	}
	return t
}

// L2Stats exposes the embedded common statistics.
func (s *SNUCA) L2Stats() *l2.Stats { return &s.Stats }

// SetMemory replaces the flat Table 3 memory with another model (the
// banked DRAM in internal/dram).
func (s *SNUCA) SetMemory(m l2.Memory) { s.memory = m }
