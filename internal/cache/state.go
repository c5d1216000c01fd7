package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"tlc/internal/mem"
)

// SetAssocState is a deep copy of a SetAssoc's contents in the array's own
// (set*assoc+way) layout: Lines holds each way's block, or the invalidLine
// sentinel (block ^0) for an empty way, and LRU each way's recency rank.
// Geometry is carried so Restore can reject a state captured from a
// differently shaped array. Fields are exported for encoding by the
// on-disk checkpoint store, which writes the binary form of
// MarshalBinary.
type SetAssocState struct {
	Sets  int
	Assoc int
	Lines []mem.Block
	LRU   []uint8
}

// Snapshot captures the array's complete replacement state. The returned
// state shares no memory with the array: mutating the array afterwards does
// not change the snapshot, so snapshots can be stored and restored later.
func (c *SetAssoc) Snapshot() SetAssocState {
	return SetAssocState{Sets: c.sets, Assoc: c.assoc, Lines: slices.Clone(c.lines), LRU: slices.Clone(c.lru)}
}

// Restore overwrites the array's contents with a previously captured state.
// The array keeps no reference to the state's slices, so the same state can
// be restored into many arrays. It returns an error, leaving the array
// unchanged, if the state's geometry does not match the array's (a
// checkpoint from a different configuration) or its contents break what
// the access paths assume (see check).
func (c *SetAssoc) Restore(st SetAssocState) error {
	if st.Sets != c.sets || st.Assoc != c.assoc {
		return fmt.Errorf("cache: restoring %dx%d state into %dx%d array",
			st.Sets, st.Assoc, c.sets, c.assoc)
	}
	n := c.sets * c.assoc
	if len(st.Lines) != n || len(st.LRU) != n {
		return fmt.Errorf("cache: state arrays sized %d/%d, want %d", len(st.Lines), len(st.LRU), n)
	}
	if err := st.check(); err != nil {
		return err
	}
	copy(c.lines, st.Lines)
	copy(c.lru, st.LRU)
	return nil
}

// check verifies, in one pass, what the access paths assume of a restored
// array, so a corrupt checkpoint is rejected instead of panicking later:
// each set's recency ranks are a permutation of 0..assoc-1 (victim
// selection looks for rank assoc-1), and every line other than the
// empty-way sentinel holds a block of the set it sits in. The ranks of a
// set are a permutation exactly when their bits, one per rank, fill the
// set's mask: assoc ranks below assoc can only do that when distinct, and
// a rank at or above assoc sets a bit outside the mask or none. The pass
// walks both arrays together and branches only at set boundaries.
func (st SetAssocState) check() error {
	setMask := uint64(st.Sets - 1)
	full := uint64(1)<<st.Assoc - 1
	// misplaced collects, over occupied ways, the set bits in which a
	// block differs from its set s; wrong the bits by which a set's ranks
	// miss the full mask.
	var misplaced, wrong, ranks, s uint64
	way := 0
	lru := st.LRU[:len(st.Lines)]
	for i, b := range st.Lines {
		diff := (uint64(b) ^ s) & setMask
		if b == invalidLine {
			diff = 0
		}
		misplaced |= diff
		ranks |= 1 << lru[i]
		if way++; way == st.Assoc {
			wrong |= ranks ^ full
			ranks, way = 0, 0
			s++
		}
	}
	if wrong != 0 {
		return fmt.Errorf("cache: a set's recency ranks are not a permutation")
	}
	if misplaced != 0 {
		return fmt.Errorf("cache: a block is stored outside its set")
	}
	return nil
}

// PartialTagsState is a deep copy of a PartialTags shadow structure in its
// own ((set*banks+bank)*assoc+way) layout: each entry is the structure's
// byte, ptagValid|tag for a valid entry and 0 for an invalid one.
type PartialTagsState struct {
	Sets  int
	Banks int
	Assoc int
	Entry []uint8
}

// Snapshot captures the shadow's complete contents; the result shares no
// memory with the structure.
func (p *PartialTags) Snapshot() PartialTagsState {
	return PartialTagsState{Sets: p.sets, Banks: p.banks, Assoc: p.assoc, Entry: slices.Clone(p.entry)}
}

// Restore overwrites the shadow with a previously captured state. It
// rejects, leaving the shadow unchanged, geometry mismatches and any entry
// other than 0 or a valid mark over a six-bit tag: the word scan in Masks
// needs every byte below 0x80, and a byte without the valid mark would
// read as a tag no lookup can match. Whether the entries agree with the
// arrays they shadow is Verify's question.
func (p *PartialTags) Restore(st PartialTagsState) error {
	if st.Sets != p.sets || st.Banks != p.banks || st.Assoc != p.assoc {
		return fmt.Errorf("cache: restoring %d/%d/%d partial-tag state into %d/%d/%d structure",
			st.Sets, st.Banks, st.Assoc, p.sets, p.banks, p.assoc)
	}
	if len(st.Entry) != len(p.entry) {
		return fmt.Errorf("cache: partial-tag state sized %d, want %d", len(st.Entry), len(p.entry))
	}
	var bad uint64
	e := st.Entry
	for ; len(e) >= 8; e = e[8:] {
		bad |= malformedEntries(binary.LittleEndian.Uint64(e))
	}
	var tail [8]byte
	copy(tail[:], e)
	if bad|malformedEntries(binary.LittleEndian.Uint64(tail[:])) != 0 {
		return fmt.Errorf("cache: malformed partial-tag entry")
	}
	copy(p.entry, st.Entry)
	return nil
}

// malformedEntries is nonzero when a byte of w is neither 0 nor ptagValid
// over a six-bit tag: a byte at or above 0x80, or one in 0x01–0x3f. Adding
// 0x3f to a byte's low six bits carries into bit 6 exactly when they are
// nonzero, and never out of the byte; a byte so marked must hold ptagValid.
func malformedEntries(w uint64) uint64 {
	const low6, valid, high = 0x3f3f3f3f3f3f3f3f, 0x4040404040404040, 0x8080808080808080
	tagged := (w&low6 + low6) & valid
	return w&high | tagged&^w
}

// The binary forms are fixed little-endian records: a header of uint32
// geometry fields, then the arrays in the structure's own layout with no
// length prefix, since the geometry sizes them. A decoder therefore checks
// the data's length against the header before it allocates anything, and
// every encoding decodes to a state that re-encodes to the same bytes.
//
//	SetAssocState:    Sets, Assoc | Lines (8 bytes each) | LRU (1 byte each)
//	PartialTagsState: Sets, Banks, Assoc | Entry (1 byte each)

// errStateEncoding rejects binary state whose length does not match its
// header. It is a fixed value so a rejection allocates nothing.
var errStateEncoding = errors.New("cache: state encoding does not match its geometry")

// MarshalBinary implements encoding.BinaryMarshaler. It fails for a state
// whose arrays do not match its geometry, which Snapshot never produces.
func (st SetAssocState) MarshalBinary() ([]byte, error) {
	n := cells(st.Sets, st.Assoc)
	if n < 0 || len(st.Lines) != n || len(st.LRU) != n {
		return nil, errStateEncoding
	}
	buf := make([]byte, 8, 8+9*n)
	binary.LittleEndian.PutUint32(buf, uint32(st.Sets))
	binary.LittleEndian.PutUint32(buf[4:], uint32(st.Assoc))
	for _, b := range st.Lines {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b))
	}
	return append(buf, st.LRU...), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It checks only
// the encoding; Restore checks the contents.
func (st *SetAssocState) UnmarshalBinary(data []byte) error {
	if len(data) < 8 || (len(data)-8)%9 != 0 {
		return errStateEncoding
	}
	sets, assoc := int(binary.LittleEndian.Uint32(data)), int(binary.LittleEndian.Uint32(data[4:]))
	n := (len(data) - 8) / 9
	if cells(sets, assoc) != n {
		return errStateEncoding
	}
	lines := make([]mem.Block, n)
	for i := range lines {
		lines[i] = mem.Block(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	*st = SetAssocState{Sets: sets, Assoc: assoc, Lines: lines, LRU: slices.Clone(data[8+8*n:])}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler. It fails for a state
// whose entries do not match its geometry, which Snapshot never produces.
func (st PartialTagsState) MarshalBinary() ([]byte, error) {
	n := cells(st.Sets, st.Banks, st.Assoc)
	if n < 0 || len(st.Entry) != n {
		return nil, errStateEncoding
	}
	buf := make([]byte, 12, 12+n)
	binary.LittleEndian.PutUint32(buf, uint32(st.Sets))
	binary.LittleEndian.PutUint32(buf[4:], uint32(st.Banks))
	binary.LittleEndian.PutUint32(buf[8:], uint32(st.Assoc))
	return append(buf, st.Entry...), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It checks only
// the encoding; Restore and Verify check the contents.
func (st *PartialTagsState) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return errStateEncoding
	}
	sets := int(binary.LittleEndian.Uint32(data))
	banks := int(binary.LittleEndian.Uint32(data[4:]))
	assoc := int(binary.LittleEndian.Uint32(data[8:]))
	if cells(sets, banks, assoc) != len(data)-12 {
		return errStateEncoding
	}
	*st = PartialTagsState{Sets: sets, Banks: banks, Assoc: assoc, Entry: slices.Clone(data[12:])}
	return nil
}

// cells reports the number of entries a geometry describes, the product
// of its dimensions, or -1 when a dimension does not fit the encoding's
// uint32 fields or the product overflows an int.
func cells(dims ...int) int {
	n := uint64(1)
	for _, d := range dims {
		if d < 0 || d > math.MaxUint32 {
			return -1
		}
		hi, lo := bits.Mul64(n, uint64(d))
		if hi != 0 || lo > math.MaxInt {
			return -1
		}
		n = lo
	}
	return int(n)
}
