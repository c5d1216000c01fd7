// Package dram is a banked main-memory model: channels, banks, row
// buffers, and bus occupancy, built on the same calendar resources as the
// on-chip models. The paper's evaluation uses a flat 300-cycle memory
// (Table 3); this model is the substrate extension that lets the harness
// ask how sensitive the cache comparison is to a real memory system —
// bank conflicts, open-page locality, and channel contention.
//
// Timing (10 GHz core cycles) roughly follows a 2003-era DDR part behind
// an on-chip controller: a row-buffer hit costs the frontend plus CAS and
// the data burst; a closed row adds activate (RCD); a conflicting open
// row adds precharge (RP) first. The defaults calibrate the mix to the
// paper's 300-cycle mean at low load.
package dram

import (
	"fmt"

	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Config describes the memory system geometry and timing.
type Config struct {
	// Channels and BanksPerChannel give the parallelism.
	Channels, BanksPerChannel int
	// RowBlocks is the row-buffer size in 64-byte blocks (8 KB rows = 128).
	RowBlocks int
	// Frontend is the fixed on-chip controller + I/O latency per access.
	Frontend sim.Time
	// RCD, RP, CAS are activate, precharge, and column-access latencies.
	RCD, RP, CAS sim.Time
	// Burst is the data-bus occupancy of one 64-byte transfer.
	Burst sim.Time
	// RefreshInterval and RefreshTime model periodic refresh: every
	// RefreshInterval cycles each bank is unavailable for RefreshTime.
	// Zero interval disables refresh.
	RefreshInterval, RefreshTime sim.Time
}

// Default returns the standard configuration: mean latency ≈ 300 cycles
// at low load with a typical open-page hit rate.
func Default() Config {
	return Config{
		Channels:        2,
		BanksPerChannel: 8,
		RowBlocks:       128,
		Frontend:        70,
		RCD:             110,
		RP:              110,
		CAS:             120,
		Burst:           40,
		// 7.8 us tREFI / ~260 ns tRFC at 10 GHz core cycles.
		RefreshInterval: 78000,
		RefreshTime:     2600,
	}
}

func (c Config) validate() {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 || c.RowBlocks <= 0 {
		panic(fmt.Sprintf("dram: bad geometry %+v", c))
	}
	if !mem.IsPow2(c.Channels) || !mem.IsPow2(c.BanksPerChannel) || !mem.IsPow2(c.RowBlocks) {
		panic("dram: geometry must be powers of two")
	}
}

// bank is one DRAM bank: a busy calendar plus the open row.
type bank struct {
	busy    sim.Resource
	openRow uint64
	hasOpen bool
	// refreshedTo is how far refresh reservations have been booked.
	refreshedTo sim.Time
}

// Memory is the banked model. It implements l2-style Fetch semantics:
// given an arrival time and block, it returns when the block's data is
// back at the cache controller.
type Memory struct {
	cfg   Config
	banks [][]*bank
	bus   []sim.Resource // per-channel data bus
	// chBits, bkBits and rowShift are log2 of the channel count, the
	// banks per channel and the row size in blocks, fixed at construction.
	chBits, bkBits, rowShift int

	// Accesses, RowHits, RowMisses, RowConflicts count outcomes;
	// Refreshes counts booked refresh windows.
	Accesses, RowHits, RowMisses, RowConflicts, Refreshes uint64
}

// New builds the memory system.
func New(cfg Config) *Memory {
	cfg.validate()
	m := &Memory{
		cfg:      cfg,
		bus:      make([]sim.Resource, cfg.Channels),
		chBits:   mem.Log2(cfg.Channels),
		bkBits:   mem.Log2(cfg.BanksPerChannel),
		rowShift: mem.Log2(cfg.RowBlocks),
	}
	for c := 0; c < cfg.Channels; c++ {
		row := make([]*bank, cfg.BanksPerChannel)
		for b := range row {
			row[b] = &bank{}
		}
		m.banks = append(m.banks, row)
	}
	return m
}

// RegisterMetrics publishes the memory system's counters under "dram.":
// the outcome tallies, the open-row hit-rate gauge, and the per-channel
// data-bus resources.
func (m *Memory) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("dram.accesses", func() uint64 { return m.Accesses })
	r.CounterFunc("dram.rowhits", func() uint64 { return m.RowHits })
	r.CounterFunc("dram.rowmisses", func() uint64 { return m.RowMisses })
	r.CounterFunc("dram.rowconflicts", func() uint64 { return m.RowConflicts })
	r.CounterFunc("dram.refreshes", func() uint64 { return m.Refreshes })
	r.Gauge("dram.row_hit_rate", func(sim.Time) float64 { return m.RowHitRate() })
	for ch := range m.bus {
		r.Resource(fmt.Sprintf("dram.bus%d", ch), &m.bus[ch])
	}
}

// route maps a block to (channel, bank, row). Channel and bank interleave
// on hashed low bits so streams spread; the row is the block's high bits,
// so spatially adjacent blocks share an open row.
func (m *Memory) route(b mem.Block) (ch, bk int, row uint64) {
	ch = int(mem.FoldHash(uint64(b), m.chBits))
	bk = int(mem.FoldHash(uint64(b)>>uint(m.chBits), m.bkBits))
	row = uint64(b) >> uint(m.rowShift)
	return ch, bk, row
}

// Fetch performs one block read and returns the completion time.
func (m *Memory) Fetch(at sim.Time, b mem.Block) sim.Time {
	m.Accesses++
	ch, bk, row := m.route(b)
	bnk := m.banks[ch][bk]
	m.bookRefreshes(bnk, at)

	// Bank occupancy: the command sequence holds the bank.
	var access sim.Time
	switch {
	case bnk.hasOpen && bnk.openRow == row:
		m.RowHits++
		access = m.cfg.CAS
	case !bnk.hasOpen:
		m.RowMisses++
		access = m.cfg.RCD + m.cfg.CAS
	default:
		m.RowConflicts++
		access = m.cfg.RP + m.cfg.RCD + m.cfg.CAS
	}
	bnk.openRow, bnk.hasOpen = row, true

	start := bnk.busy.Reserve(at+m.cfg.Frontend, access)
	ready := start + access
	// The data burst occupies the channel bus.
	busStart := m.bus[ch].Reserve(ready, m.cfg.Burst)
	return busStart + m.cfg.Burst
}

// bookRefreshes lazily reserves the periodic refresh windows on a bank's
// calendar up to the current time (plus one interval of lookahead, so an
// in-flight access can still collide with the next refresh). A refresh
// closes the open row.
func (m *Memory) bookRefreshes(bnk *bank, at sim.Time) {
	if m.cfg.RefreshInterval == 0 {
		return
	}
	for bnk.refreshedTo <= at+m.cfg.RefreshInterval {
		next := bnk.refreshedTo + m.cfg.RefreshInterval
		bnk.busy.Reserve(next, m.cfg.RefreshTime)
		bnk.refreshedTo = next
		bnk.hasOpen = false
		m.Refreshes++
	}
}

// Write performs one block writeback: same bank/bus occupancy, but the
// caller does not wait, so only the reservations matter.
func (m *Memory) Write(at sim.Time, b mem.Block) {
	m.Fetch(at, b)
}

// RowHitRate reports the fraction of accesses that hit an open row.
func (m *Memory) RowHitRate() float64 {
	if m.Accesses == 0 {
		return 0
	}
	return float64(m.RowHits) / float64(m.Accesses)
}
