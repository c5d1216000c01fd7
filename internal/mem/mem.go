// Package mem defines the physical-address arithmetic and request types
// shared by every cache model. All designs in the paper use 64-byte cache
// blocks (Table 3); addresses are byte addresses in a 4 GB physical space.
package mem

import "fmt"

// BlockBytes is the cache block size used throughout the paper (Table 3).
const BlockBytes = 64

// Block is a block-aligned address identifier: the address with the
// block-offset bits removed. Two addresses in the same 64-byte block map to
// the same Block.
type Block uint64

// SetIndex reports the cache-set index for this block in a cache with the
// given number of sets. Sets must be a power of two.
func (b Block) SetIndex(sets int) int {
	return int(uint64(b) & uint64(sets-1))
}

// Tag reports the block's tag in a cache with the given number of sets.
func (b Block) Tag(sets int) uint64 {
	return uint64(b) / uint64(sets)
}

// PartialTag reports the low 6 bits of the block tag, the partial tag used
// both by DNUCA's controller structure and the TLCopt in-bank comparison
// (the paper's 6-bit partial tags, after Kessler et al. [21]).
func (b Block) PartialTag(sets int) uint8 {
	return uint8(b.Tag(sets) & 0x3f)
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Log2 reports log2(v) for a power of two, panicking otherwise: set and bank
// counts in every design in Table 2 are powers of two, and anything else is
// a configuration bug.
func Log2(v int) int {
	if !IsPow2(v) {
		panic(fmt.Sprintf("mem: %d is not a power of two", v))
	}
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// FoldHash folds every higher bit group of v into the low `bits` bits: the
// result is the XOR of all `bits`-wide groups of v. It is the bank-hash
// every design uses to select a bank/group/bank-set: unlike plain low-bit
// interleaving it decorrelates all power-of-two strides (notably the
// L1-capacity stride between a streaming load and its own dirty-victim
// writeback) from bank conflicts, while remaining trivially invertible
// given the remaining high bits.
//
// The fold is a prefix XOR by doubling: after the step with shift s, each
// position holds the XOR of the 2s/bits groups at and above it, so
// ceil(log2(64/bits)) steps cover the word instead of one step per group.
// A zero-width hash (a single bank or channel) is 0.
func FoldHash(v uint64, bits int) uint64 {
	if bits <= 0 {
		return 0
	}
	for s := uint(bits); s < 64; s <<= 1 {
		v ^= v >> s
	}
	return v & (1<<uint(bits) - 1)
}

// AccessType distinguishes loads from stores. All TLC designs are exclusive
// write-back caches: stores are written without a tag comparison (Section 4),
// which the cache models use to skip the lookup path.
type AccessType uint8

const (
	// Load is a data read (or instruction fetch reaching L2).
	Load AccessType = iota
	// Store is a data write.
	Store
)

func (t AccessType) String() string {
	switch t {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// Request is one L2 cache access as issued by the processor side.
type Request struct {
	Block Block
	Type  AccessType
	// Core identifies the requesting CMP core. Single-core runs leave it
	// zero; the shared-L2 arbitration layer stamps it so designs and the
	// coherence directory can attribute traffic per core.
	Core int
}

// Result describes the outcome of one L2 access.
type Result struct {
	// Hit reports whether the block was found in the L2.
	Hit bool
	// Latency is the total lookup latency in cycles, from the request
	// arriving at the cache controller to data (or the miss determination)
	// being available at the controller.
	Latency uint64
	// Predictable reports whether the access completed in the design's
	// statically predicted latency — the quantity behind Table 6 columns
	// 7-8. Unpredictable lookups are those delayed by contention, extra
	// bank searches, or multi-match resolution.
	Predictable bool
	// BanksAccessed counts data banks touched by this request (Table 9).
	BanksAccessed int
}
