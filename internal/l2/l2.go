// Package l2 defines the contract between the processor model and the
// level-2 cache designs. Every design (SNUCA2, DNUCA, the TLC family)
// implements Cache; the CPU model and the benchmark harness only see this
// interface.
//
// Timing convention: designs compute access timing arithmetically against
// monotone resource reservations (banks, links) rather than by scheduling
// engine events, so an Access call returns the full outcome immediately.
// Functional state changes (fills, migrations) are applied at call time
// even though their timing lands later; at the simulated request rates this
// skew is far smaller than the reuse distances that determine hit rates.
// Callers must present requests in non-decreasing time order.
package l2

import (
	"tlc/internal/mem"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Outcome describes one L2 access.
type Outcome struct {
	// Hit reports whether the block was resident.
	Hit bool
	// ResolveAt is when the controller has resolved the access: data at
	// the controller for hits, the miss determination for misses.
	ResolveAt sim.Time
	// CompleteAt is when data is available to the processor: ResolveAt
	// for hits, ResolveAt plus the memory latency for misses. Stores
	// complete immediately (fire-and-forget past the store buffer).
	CompleteAt sim.Time
	// Predictable reports whether the lookup resolved in its statically
	// predicted latency (Table 6, columns 7-8): the per-bank nominal
	// latency for the static designs, the close-hit or fast-miss nominal
	// for DNUCA. Contention, searches, far hits, and multi-match
	// resolution all clear it.
	Predictable bool
	// BanksAccessed counts data banks touched (Table 9).
	BanksAccessed int
}

// Cache is one L2 design under test.
type Cache interface {
	// Access performs one request arriving at the controller at cycle
	// `at`. Calls must be in non-decreasing `at` order.
	Access(at sim.Time, req mem.Request) Outcome
	// Warm installs a block functionally (no timing), for cache warm-up
	// before the measured interval.
	Warm(b mem.Block)
	// Contains reports functional residency, for tests and warm-up logic.
	Contains(b mem.Block) bool
}

// Warmer is the bulk counterpart of Cache.Warm, the fused warm kernel of
// the batched delivery protocol: WarmBulk functionally installs every block
// of the slice, in slice order, with no timing — one interface dispatch and
// one pass of hoisted address arithmetic per batch instead of per block.
// Implementations must leave the cache in exactly the state len(blocks)
// successive Warm calls would (the batched/scalar equivalence gate pins
// this per design). The slice remains owned by the caller and may be reused
// immediately after the call returns.
type Warmer interface {
	WarmBulk(blocks []mem.Block)
}

// WarmAll is the bulk warm entry point: it functionally installs blocks in
// slice order through the design's bulk path when it implements Warmer,
// else through per-block Warm calls. Core.Warm makes this one call per
// sweep, and a lane-parallel warm pass makes it once per lane per sweep,
// so a design's bulk kernel is reached with a single dispatch. Empty
// batches (a sweep that spilled nothing) cost nothing.
func WarmAll(c Cache, blocks []mem.Block) {
	if len(blocks) == 0 {
		return
	}
	if w, ok := c.(Warmer); ok {
		w.WarmBulk(blocks)
		return
	}
	for _, b := range blocks {
		c.Warm(b)
	}
}

// Instrumented is a Cache wired into the instrumentation spine: it exposes
// the common access stats and the full metrics registry every layer
// published into at construction. The harness reports exclusively through
// this interface — table and figure values are registry reads, never
// design-specific plumbing.
type Instrumented interface {
	Cache
	// L2Stats exposes the common access bookkeeping.
	L2Stats() *Stats
	// Metrics exposes the run's metric registry.
	Metrics() *metrics.Registry
}

// State is an opaque, design-specific snapshot of a cache's functional
// contents. Each design defines its own concrete state type; the snapshot
// layer (internal/snapshot) stores and transports them without inspecting
// the contents. Concrete types are exported structs of exported fields so
// the on-disk store can gob-encode them.
type State interface{}

// Snapshotter is implemented by designs whose functional contents can be
// captured and restored — the L2 half of a warm-state checkpoint. The
// contract mirrors Warm: only functional state (arrays, shadow tags) is
// captured; timing resources and statistics are per-run and start clean.
type Snapshotter interface {
	// SnapshotState deep-copies the cache's functional contents. Mutating
	// the cache afterwards must not change the returned state.
	SnapshotState() State
	// RestoreState overwrites the cache's functional contents with a state
	// previously captured from an identically configured cache. It returns
	// an error on a type or geometry mismatch.
	RestoreState(State) error
}

// Memory abstracts the main memory behind the L2: Fetch returns when a
// missed block's data is back at the cache controller. The default is
// FlatMemory (the paper's Table 3 fixed latency); internal/dram provides a
// banked model with row buffers and channel contention.
type Memory interface {
	Fetch(at sim.Time, b mem.Block) sim.Time
}

// FlatMemory is the Table 3 memory: a fixed mean latency with the
// deterministic per-block skew of MemLatency.
type FlatMemory struct {
	Latency sim.Time
}

// Fetch implements Memory.
func (f FlatMemory) Fetch(at sim.Time, b mem.Block) sim.Time {
	return at + MemLatency(f.Latency, b)
}

// MemLatency reports the memory access latency for a block: the Table 3
// mean of 300 cycles plus a deterministic per-block skew of up to +/-16
// cycles standing in for DRAM bank and channel scheduling variation.
// Without it, the fixed-latency memory returns the 8 outstanding misses in
// lockstep, and their fill and writeback traffic collides with the next
// burst in a way no real memory system exhibits.
func MemLatency(base sim.Time, b mem.Block) sim.Time {
	h := uint64(b) * 0x9e3779b97f4a7c15
	return base + sim.Time(h>>59) - 16 // +/-16 around the mean
}
