package cache

import (
	"fmt"

	"tlc/internal/mem"
)

// SetAssocState is a deep copy of a SetAssoc's contents: lines, valid bits,
// and LRU ranks, in the array's own (set*assoc+way) layout. Geometry is
// carried so Restore can reject a state captured from a differently shaped
// array. Fields are exported for gob encoding by the on-disk checkpoint
// store; the block type is an integer, so the copy is bit-exact.
type SetAssocState struct {
	Sets  int
	Assoc int
	Lines []mem.Block
	Valid []bool
	LRU   []uint8
}

// Snapshot captures the array's complete replacement state. The returned
// state shares no memory with the array: mutating the array afterwards does
// not change the snapshot, so snapshots can be stored and restored later.
func (c *SetAssoc) Snapshot() SetAssocState {
	st := SetAssocState{
		Sets:  c.sets,
		Assoc: c.assoc,
		Lines: make([]mem.Block, len(c.lines)),
		Valid: make([]bool, len(c.valid)),
		LRU:   make([]uint8, len(c.lru)),
	}
	copy(st.Lines, c.lines)
	for i, v := range c.valid {
		st.Valid[i] = v != 0
		if v == 0 {
			// Normalize the internal invalid-line sentinel away: exported
			// states (and the on-disk checkpoints built from them) keep
			// zeros in invalid ways, as they always have.
			st.Lines[i] = 0
		}
	}
	copy(st.LRU, c.lru)
	return st
}

// Restore overwrites the array's contents with a previously captured state.
// The array keeps no reference to the state's slices, so the same state can
// be restored into many arrays. It returns an error if the state's geometry
// does not match the array's (a checkpoint from a different configuration).
func (c *SetAssoc) Restore(st SetAssocState) error {
	if st.Sets != c.sets || st.Assoc != c.assoc {
		return fmt.Errorf("cache: restoring %dx%d state into %dx%d array",
			st.Sets, st.Assoc, c.sets, c.assoc)
	}
	n := c.sets * c.assoc
	if len(st.Lines) != n || len(st.Valid) != n || len(st.LRU) != n {
		return fmt.Errorf("cache: state arrays sized %d/%d/%d, want %d",
			len(st.Lines), len(st.Valid), len(st.LRU), n)
	}
	if err := st.checkContents(); err != nil {
		return err
	}
	copy(c.lines, st.Lines)
	for i, v := range st.Valid {
		if v {
			c.valid[i] = 1
		} else {
			// Re-establish the invalid-line sentinel the exported form
			// (and any checkpoint written before it existed) stores as 0.
			c.valid[i] = 0
			c.lines[i] = invalidLine
		}
	}
	copy(c.lru, st.LRU)
	return nil
}

// checkContents verifies what the access paths assume of a restored
// array, so a corrupt checkpoint is rejected instead of panicking later:
// each set's recency ranks are a permutation of 0..assoc-1 (victim
// selection looks for rank assoc-1), and every valid line sits in the set
// its block maps to.
func (st SetAssocState) checkContents() error {
	seen := make([]bool, st.Assoc)
	for s := 0; s < st.Sets; s++ {
		clear(seen)
		for w := 0; w < st.Assoc; w++ {
			i := s*st.Assoc + w
			r := int(st.LRU[i])
			if r >= st.Assoc || seen[r] {
				return fmt.Errorf("cache: set %d recency ranks are not a permutation", s)
			}
			seen[r] = true
			if st.Valid[i] && st.Lines[i].SetIndex(st.Sets) != s {
				return fmt.Errorf("cache: block %#x stored in set %d", st.Lines[i], s)
			}
		}
	}
	return nil
}

// PartialTagsState is a deep copy of a PartialTags shadow structure in its
// own ((set*banks+bank)*assoc+way) layout.
type PartialTagsState struct {
	Sets  int
	Banks int
	Assoc int
	Tags  []uint8
	Valid []bool
}

// Snapshot captures the shadow's complete contents; the result shares no
// memory with the structure.
func (p *PartialTags) Snapshot() PartialTagsState {
	st := PartialTagsState{
		Sets:  p.sets,
		Banks: p.banks,
		Assoc: p.assoc,
		Tags:  make([]uint8, len(p.tags)),
		Valid: make([]bool, len(p.valid)),
	}
	copy(st.Tags, p.tags)
	copy(st.Valid, p.valid)
	return st
}

// Restore overwrites the shadow with a previously captured state, rejecting
// geometry mismatches.
func (p *PartialTags) Restore(st PartialTagsState) error {
	if st.Sets != p.sets || st.Banks != p.banks || st.Assoc != p.assoc {
		return fmt.Errorf("cache: restoring %d/%d/%d partial-tag state into %d/%d/%d structure",
			st.Sets, st.Banks, st.Assoc, p.sets, p.banks, p.assoc)
	}
	n := p.sets * p.banks * p.assoc
	if len(st.Tags) != n || len(st.Valid) != n {
		return fmt.Errorf("cache: partial-tag state arrays sized %d/%d, want %d",
			len(st.Tags), len(st.Valid), n)
	}
	copy(p.tags, st.Tags)
	copy(p.valid, st.Valid)
	return nil
}
