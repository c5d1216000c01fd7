package tlcache

import (
	"fmt"

	"tlc/internal/cache"
	"tlc/internal/l2"
)

// State is the functional contents of a TLC design: the per-group
// complete-tag arrays plus, for the optimized designs, their partial-tag
// shadows (captured together so the shadows stay consistent without a
// rebuild; the base design has none). Exported for gob encoding by the
// checkpoint store.
type State struct {
	Groups []cache.SetAssocState
	PTags  []cache.PartialTagsState
}

// SnapshotState implements l2.Snapshotter.
func (c *Cache) SnapshotState() l2.State {
	st := State{Groups: make([]cache.SetAssocState, len(c.groups))}
	for i, g := range c.groups {
		st.Groups[i] = g.Snapshot()
	}
	// Appending leaves the base design's PTags nil, the value a decoded
	// checkpoint holds.
	for _, p := range c.ptags {
		st.PTags = append(st.PTags, p.Snapshot())
	}
	return st
}

// RestoreState implements l2.Snapshotter.
func (c *Cache) RestoreState(state l2.State) error {
	st, ok := state.(State)
	if !ok {
		return fmt.Errorf("tlcache: restoring %T into a TLC cache", state)
	}
	if len(st.Groups) != len(c.groups) || len(st.PTags) != len(c.ptags) {
		return fmt.Errorf("tlcache: state has %d groups/%d ptags, cache has %d/%d",
			len(st.Groups), len(st.PTags), len(c.groups), len(c.ptags))
	}
	for i, g := range c.groups {
		if err := g.Restore(st.Groups[i]); err != nil {
			return fmt.Errorf("tlcache: group %d: %w", i, err)
		}
	}
	for i, p := range c.ptags {
		if err := p.Restore(st.PTags[i]); err != nil {
			return fmt.Errorf("tlcache: ptag %d: %w", i, err)
		}
		// The shadows decide multi-match round trips, so one that
		// disagrees with its group array is rejected.
		if err := p.Verify(0, c.groups[i]); err != nil {
			return fmt.Errorf("tlcache: ptag %d: %w", i, err)
		}
	}
	return nil
}
