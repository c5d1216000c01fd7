package cache

import (
	"reflect"
	"testing"

	"tlc/internal/mem"
)

// warmRefs builds a pseudo-random warm stream over a space a few times the
// array's capacity: hits, misses into free ways, evicting misses and ~1/4
// stores.
func warmRefs(n int) []WarmRef {
	refs := make([]WarmRef, n)
	x := uint64(3)
	for i := range refs {
		x = x*6364136223846793005 + 1442695040888963407
		refs[i] = WarmRef{Block: mem.Block(x >> 55), Store: x%4 == 0}
	}
	return refs
}

// touchInsertSweep is the per-reference oracle for WarmSweep: TouchAt, then
// InsertAt on a miss, with the write-back dirty bookkeeping spelled out
// one reference at a time.
func touchInsertSweep(c *SetAssoc, refs []WarmRef, dirty []uint8, spill []mem.Block) []mem.Block {
	for _, r := range refs {
		if idx, hit := c.TouchAt(r.Block); hit {
			if r.Store {
				dirty[idx] = 1
			}
			continue
		}
		idx, victim, evicted := c.InsertAt(r.Block)
		if evicted && dirty[idx] != 0 {
			spill = append(spill, victim)
		}
		if r.Store {
			dirty[idx] = 1
		} else {
			dirty[idx] = 0
			spill = append(spill, r.Block)
		}
	}
	return spill
}

// TestWarmSweepMatchesTouchInsert is the warm kernel's oracle: batch by
// batch, WarmSweep must leave the array state and dirty bits bit-identical
// to the per-reference TouchAt/InsertAt loop and spill the same blocks in
// the same order — for the branch-free 2-way kernel, the generic-assoc
// path, and the 2-way fallback taken when the spill lacks headroom.
func TestWarmSweepMatchesTouchInsert(t *testing.T) {
	cases := []struct {
		name        string
		sets, assoc int
		headroom    bool
	}{
		{"2-way-kernel", 64, 2, true},
		{"4-way-generic", 16, 4, true},
		{"8-way-generic", 8, 8, true},
		{"2-way-no-headroom", 32, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweep, oracle := NewSetAssoc(tc.sets, tc.assoc), NewSetAssoc(tc.sets, tc.assoc)
			sweepDirty, oracleDirty := make([]uint8, sweep.Blocks()), make([]uint8, oracle.Blocks())
			refs := warmRefs(8192)
			const batch = 512
			for off := 0; off < len(refs); off += batch {
				chunk := refs[off : off+batch]
				// Two slots per reference keeps the 2-way kernel eligible,
				// as Core.Warm sizes it; a nil spill forces the fallback.
				var spill []mem.Block
				if tc.headroom {
					spill = make([]mem.Block, 0, 2*batch)
				}
				got := sweep.WarmSweep(chunk, sweepDirty, spill)
				want := touchInsertSweep(oracle, chunk, oracleDirty, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch at %d: spill diverged: sweep %d blocks, oracle %d", off, len(got), len(want))
				}
			}
			if !reflect.DeepEqual(sweep.Snapshot(), oracle.Snapshot()) {
				t.Error("array state diverged from the TouchAt/InsertAt loop")
			}
			if !reflect.DeepEqual(sweepDirty, oracleDirty) {
				t.Error("dirty bits diverged from the TouchAt/InsertAt loop")
			}
			if err := sweep.checkLRUPermutation(); err != nil {
				t.Errorf("LRU state corrupt: %v", err)
			}
		})
	}
}

// TestWarmSweepDoesNotAllocate pins the sweep at zero allocations given
// spill capacity, for the 2-way kernel and the generic path.
func TestWarmSweepDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name        string
		sets, assoc int
	}{{"kernel", 64, 2}, {"generic", 16, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewSetAssoc(tc.sets, tc.assoc)
			dirty := make([]uint8, c.Blocks())
			refs := warmRefs(512)
			spill := make([]mem.Block, 0, 2*len(refs))
			if allocs := testing.AllocsPerRun(10, func() {
				spill = c.WarmSweep(refs, dirty, spill[:0])
			}); allocs != 0 {
				t.Errorf("WarmSweep allocates %.2f per call, want 0", allocs)
			}
		})
	}
}
