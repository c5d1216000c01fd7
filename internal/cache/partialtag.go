package cache

import (
	"encoding/binary"
	"fmt"

	"tlc/internal/mem"
)

// PartialTags is the 6-bit partial-tag structure DNUCA keeps at its central
// controller (Section 2) and TLCopt keeps inside each bank (Section 4). It
// shadows a set of cache banks: for each (set, bank, way) it records the low
// six tag bits of the resident block, so a lookup can name the candidate
// banks that might hold a block without accessing them.
//
// Partial tags admit false positives (two tags sharing low bits) but never
// false negatives — provided the structure is kept consistent with the bank
// contents, which is exactly the synchronization burden the paper charges
// DNUCA with.
type PartialTags struct {
	sets  int
	banks int
	assoc int
	// setBits is log2(sets): a block's tag is its bits above the set index.
	setBits int
	// entry[(set*banks+bank)*assoc+way] is ptagValid|tag for a valid entry
	// and 0 for an invalid one. Validity lives in the tag byte, so one byte
	// compare against a key decides a match and Masks compares eight
	// entries per word.
	entry []uint8
	// fold maps a byte of per-entry flags (bit i for the i-th entry of a
	// word) to per-bank flags (bit k set when any of bank k's ways is):
	// the word scan's reduction when assoc divides 8. Nil otherwise.
	fold *[256]uint8
}

// ptagValid marks a valid entry; the six tag bits sit below it, and every
// entry stays below 0x80, which the word-parallel zero-byte test relies on.
const ptagValid = 0x40

// NewPartialTags shadows `banks` banks (at most 64, one bit each in
// Masks), each with the given per-bank sets (a power of two) and
// associativity.
func NewPartialTags(sets, banks, assoc int) *PartialTags {
	if sets <= 0 || banks <= 0 || banks > 64 || assoc <= 0 {
		panic(fmt.Sprintf("cache: bad partial tag geometry %d/%d/%d", sets, banks, assoc))
	}
	p := &PartialTags{
		sets:    sets,
		banks:   banks,
		assoc:   assoc,
		setBits: mem.Log2(sets),
		entry:   make([]uint8, sets*banks*assoc),
	}
	if 8%assoc == 0 && banks*assoc%8 == 0 {
		p.fold = new([256]uint8)
		for flags := range p.fold {
			for i := 0; i < 8; i++ {
				if flags&(1<<i) != 0 {
					p.fold[flags] |= 1 << (i / assoc)
				}
			}
		}
	}
	return p
}

// key is the entry a valid line holding b stores.
func (p *PartialTags) key(b mem.Block) uint8 {
	return ptagValid | uint8(uint64(b)>>uint(p.setBits)&0x3f)
}

// Install records block b residing in bank at the given way.
func (p *PartialTags) Install(b mem.Block, bank, way int) {
	p.entry[p.index(b.SetIndex(p.sets), bank, way)] = p.key(b)
}

// Clear records bank's way in b's set as empty: the way a block left.
func (p *PartialTags) Clear(b mem.Block, bank, way int) {
	p.entry[p.index(b.SetIndex(p.sets), bank, way)] = 0
}

// Masks scans b's set once and reports, one bit per bank, the banks with
// a way whose partial tag matches b (match) and the banks with an invalid
// way (free). When the associativity divides eight and a set fills whole
// words, the scan compares eight entries per word, so a 16-bank, 2-way
// DNUCA bank set costs four word compares.
func (p *PartialTags) Masks(b mem.Block) (match, free uint64) {
	key := p.key(b)
	n := p.banks * p.assoc
	set := p.entry[b.SetIndex(p.sets)*n:][:n]
	if p.fold == nil {
		for bank := 0; bank < p.banks; bank++ {
			for _, e := range set[bank*p.assoc : (bank+1)*p.assoc] {
				if e == key {
					match |= 1 << uint(bank)
				}
				if e == 0 {
					free |= 1 << uint(bank)
				}
			}
		}
		return match, free
	}
	keys := uint64(key) * 0x0101010101010101
	perWord := uint(8 / p.assoc) // banks per word
	for i, shift := 0, uint(0); i < n; i, shift = i+8, shift+perWord {
		w := binary.LittleEndian.Uint64(set[i:])
		match |= uint64(p.fold[zeroBytes(w^keys)]) << shift
		free |= uint64(p.fold[zeroBytes(w)]) << shift
	}
	return match, free
}

// zeroBytes reports which bytes of x are zero, bit i for byte i, given
// that every byte of x is below 0x80. Adding 0x7f to a byte sets its high
// bit exactly when the byte is nonzero (no carry leaves the byte); the
// multiply then gathers the eight high bits into the top byte.
func zeroBytes(x uint64) uint64 {
	const low7, high = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	nonzero := (x + low7) | x
	return ((^nonzero & high) >> 7) * 0x0102040810204080 >> 56
}

// MatchCount reports the number of ways in bank matching b's partial tag —
// the multi-match case TLCopt resolves with a second round trip.
func (p *PartialTags) MatchCount(b mem.Block, bank int) int {
	set := b.SetIndex(p.sets)
	key := p.key(b)
	n := 0
	for way := 0; way < p.assoc; way++ {
		if p.entry[p.index(set, bank, way)] == key {
			n++
		}
	}
	return n
}

// Verify reports an error unless bank's shadow holds exactly the partial
// tags of arr's valid lines, way for way, and no entry where arr's way is
// invalid. Restoring a checkpoint calls it: the shadow decides which rows
// a lookup searches, so a shadow that disagrees with its arrays would
// skew results silently.
func (p *PartialTags) Verify(bank int, arr *SetAssoc) error {
	if arr.sets != p.sets || arr.assoc != p.assoc {
		return fmt.Errorf("cache: %dx%d array behind a %dx%d partial-tag shadow",
			arr.sets, arr.assoc, p.sets, p.assoc)
	}
	if bank < 0 || bank >= p.banks {
		return fmt.Errorf("cache: partial-tag bank %d out of range", bank)
	}
	// OR together every entry's difference from what its line implies: a
	// valid line's key, or 0 for an invalid (sentinel) line.
	var diff uint8
	k, stride := bank*p.assoc, p.banks*p.assoc
	for line := 0; line < len(arr.lines); line += p.assoc {
		for way, b := range arr.lines[line : line+p.assoc] {
			var want uint8
			if b != invalidLine {
				want = p.key(b)
			}
			diff |= p.entry[k+way] ^ want
		}
		k += stride
	}
	if diff != 0 {
		return fmt.Errorf("cache: partial-tag shadow of bank %d disagrees with its array", bank)
	}
	return nil
}

func (p *PartialTags) index(set, bank, way int) int {
	if bank < 0 || bank >= p.banks || way < 0 || way >= p.assoc {
		panic(fmt.Sprintf("cache: partial tag index bank=%d way=%d out of range", bank, way))
	}
	return (set*p.banks+bank)*p.assoc + way
}
