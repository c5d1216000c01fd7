// Package snapshot stores warm-state checkpoints: the complete post-warm-up
// functional state of a simulated machine, keyed by everything that
// determines it. A seed study or parameter sweep re-pays the 4M–24M
// instruction functional warm-up for every (design, bench) point it visits;
// with a checkpoint the warm-up runs once and later runs restore its result
// directly.
//
// Determinism contract: warm-up is purely functional (cpu.Core.Warm and the
// designs' Warm methods touch arrays and shadow tags only — no timing
// resources, no statistics), so a checkpoint captures the machine exactly
// and a restored run is bit-identical to one that re-executed the warm-up.
// The warm-prefix capture is batch-driven (NextMems run-length skipping
// plus l2.Warmer bulk installs), which the contract survives because
// batching is pinned bit-identical to a per-instruction reference loop:
// the checkpoint is the one per-instruction warm-up would have written.
//
// One Checkpoint envelope covers machines of every width: per-core cache
// states and stream positions, the shared L2, and (for N >= 2) the
// coherence directory. The store treats entries as opaque; the consumer
// restores all of it or none, so a checkpoint that fails any layer's
// validation is a miss.
//
// The store is a Cache: an in-process LRU with an optional on-disk tier.
// Disk persistence uses encoding/gob with atomic temp-file + rename writes,
// so concurrent processes sharing a directory never observe torn
// checkpoints; the cache array states inside a checkpoint encode
// themselves as fixed little-endian byte strings (cache.SetAssocState and
// cache.PartialTagsState implement encoding.BinaryMarshaler). The same Cache type holds phase profiles (ProfileStore) and
// tlcd's result records (memory only).
package snapshot

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/machine"
	"tlc/internal/nuca"
	"tlc/internal/tlcache"
	"tlc/internal/workload"
)

func init() {
	// The L2 half of a checkpoint is an opaque l2.State; gob needs the
	// concrete design types registered to encode through the interface.
	gob.Register(nuca.SNUCAState{})
	gob.Register(nuca.DNUCAState{})
	gob.Register(tlcache.State{})
}

// Key identifies one warm-up result: the design configuration (a hash of
// every parameter that shapes machine state), the benchmark, the seed that
// drove the warm-up stream, and the warm-up length. Two runs with equal
// keys provably reach identical post-warm state.
type Key struct {
	// Config is a hash of the design + system configuration, computed by
	// the caller (tlc.Options knows the full parameter set; this package
	// does not). It also versions the checkpoint format: callers bump the
	// hash input when state layouts change.
	Config string
	Bench  string
	Seed   int64
	Warm   uint64
}

// String renders the key for filenames and diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s-%s-s%d-w%d", k.Config, k.Bench, k.Seed, k.Warm)
}

// filename is the key's on-disk name: an FNV hash keeps names short and
// filesystem-safe regardless of bench naming.
func (k Key) filename() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d", k.Config, k.Bench, k.Seed, k.Warm)
	return fmt.Sprintf("ckpt-%016x.gob", h.Sum64())
}

// Checkpoint is the complete post-warm state of a machine of N >= 1 cores:
// every core's cache state, the shared L2 contents, every core's stream
// position, and the MSI coherence directory (sorted by block; see
// machine.DirectorySnapshot). One envelope serves every width: a 1-core
// machine stores one core, its generator's position in Gens[0].Gen, and no
// directory. Consumers restoring for an N-core key must treat a checkpoint
// with len(Cores) != N as a miss.
type Checkpoint struct {
	Cores []cpu.State
	L2    l2.State
	Gens  []workload.CMPState
	Dir   []machine.DirEntry
	// Lanes marks a checkpoint produced by a lane-parallel warm pass (one
	// shared stream warming several configurations at once). Provenance
	// only: lane-warmed state is bit-identical to scalar-warmed state, so
	// consumers restore both the same way.
	Lanes bool
}

// Store is the checkpoint cache: a bounded in-process LRU of checkpoints
// with an optional disk tier.
type Store = Cache[Key, Checkpoint]

// DefaultCapacity bounds the in-process tier. Checkpoints are megabytes
// each (L2 arrays dominate); a sweep touches one per (design, bench, warm),
// so a small multiple of the twelve benchmarks is plenty.
const DefaultCapacity = 64

// NewStore builds a store holding up to capacity checkpoints in memory
// (DefaultCapacity if capacity <= 0). If dir is non-empty, checkpoints are
// also written there and Get falls back to disk on a memory miss; the
// directory is created on first use.
func NewStore(capacity int, dir string) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return NewCache[Key, Checkpoint](capacity, dir, Key.filename)
}
