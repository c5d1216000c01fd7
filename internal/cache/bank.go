package cache

import (
	"fmt"

	"tlc/internal/mem"
	"tlc/internal/sim"
)

// WayOf reports the way currently holding b, for callers (DNUCA's partial
// tag synchronization) that must shadow per-way residency.
func (c *SetAssoc) WayOf(b mem.Block) (int, bool) {
	idx, ok := c.find(b)
	if !ok {
		return 0, false
	}
	return idx % c.assoc, true
}

// Bank is one storage bank: a set-associative tag/data array behind a
// single contended port. AccessTime is the ECACTI-style array access
// latency (Table 2: 3 cycles for DNUCA's 64 KB banks, 8 for 512 KB, 10 for
// 1 MB). The port is occupied for the full access time — banks are not
// internally pipelined, which is how the paper charges bank contention to
// TLC's fewer, larger banks.
type Bank struct {
	Array      *SetAssoc
	AccessTime sim.Time
	port       sim.Resource

	// Accesses counts timed reservations against this bank.
	Accesses uint64
}

// NewBank builds a bank with the given geometry and access latency.
func NewBank(sets, assoc int, accessTime sim.Time) *Bank {
	if accessTime == 0 {
		panic("cache: bank access time must be positive")
	}
	return &Bank{Array: NewSetAssoc(sets, assoc), AccessTime: accessTime}
}

// Reserve books the bank port for one access arriving at cycle `at` and
// returns the cycle the access completes (data available at the bank edge).
func (b *Bank) Reserve(at sim.Time) (done sim.Time) {
	b.Accesses++
	start := b.port.Reserve(at, b.AccessTime)
	return start + b.AccessTime
}

// PortBusyCycles reports total cycles the bank port was occupied.
func (b *Bank) PortBusyCycles() sim.Time { return b.port.BusyCycles() }

// SizeBytes reports the bank's data capacity.
func (b *Bank) SizeBytes() int { return b.Array.Blocks() * mem.BlockBytes }

// String describes the bank geometry.
func (b *Bank) String() string {
	return fmt.Sprintf("bank{%dKB %d-way %dcyc}", b.SizeBytes()/1024, b.Array.Assoc(), b.AccessTime)
}
