package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tlc/internal/mem"
)

// blk builds a block that maps to the given set of a sets-set cache with the
// given tag.
func blk(tag uint64, set, sets int) mem.Block {
	return mem.Block(tag*uint64(sets) + uint64(set))
}

// validLines counts the array's resident lines, set by set.
func validLines(c *SetAssoc) int {
	n := 0
	for set := 0; set < c.sets; set++ {
		n += len(c.AppendLinesIn(nil, set))
	}
	return n
}

func TestInsertAndLookup(t *testing.T) {
	c := NewSetAssoc(16, 4)
	b := blk(1, 3, 16)
	if c.Lookup(b) {
		t.Fatal("empty cache reported a hit")
	}
	if _, ev := c.Insert(b); ev {
		t.Fatal("insert into empty set evicted")
	}
	if !c.Lookup(b) {
		t.Fatal("inserted block not found")
	}
	if validLines(c) != 1 {
		t.Fatalf("occupancy %d, want 1", validLines(c))
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewSetAssoc(4, 2)
	a := blk(1, 0, 4)
	b := blk(2, 0, 4)
	d := blk(3, 0, 4)
	c.Insert(a)
	c.Insert(b)
	// a is now LRU; touching it makes b LRU.
	if !c.Touch(a) {
		t.Fatal("touch of resident block failed")
	}
	victim, ev := c.Insert(d)
	if !ev || victim != b {
		t.Fatalf("evicted (%v,%v), want block b", victim, ev)
	}
	if !c.Lookup(a) || !c.Lookup(d) || c.Lookup(b) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestLookupDoesNotPerturbLRU(t *testing.T) {
	c := NewSetAssoc(4, 2)
	a := blk(1, 0, 4)
	b := blk(2, 0, 4)
	c.Insert(a)
	c.Insert(b)
	// Probing a must NOT promote it: b stays MRU, a stays LRU.
	c.Lookup(a)
	victim, ev := c.Insert(blk(3, 0, 4))
	if !ev || victim != a {
		t.Fatalf("evicted (%v,%v); Lookup must not refresh recency", victim, ev)
	}
}

func TestReinsertRefreshesRecency(t *testing.T) {
	c := NewSetAssoc(4, 2)
	a := blk(1, 0, 4)
	b := blk(2, 0, 4)
	c.Insert(a)
	c.Insert(b)
	if _, ev := c.Insert(a); ev {
		t.Fatal("reinsert of resident block evicted")
	}
	victim, ev := c.Insert(blk(3, 0, 4))
	if !ev || victim != b {
		t.Fatalf("evicted (%v,%v), want b after a was refreshed", victim, ev)
	}
}

func TestRemove(t *testing.T) {
	c := NewSetAssoc(4, 2)
	a := blk(1, 0, 4)
	b := blk(2, 0, 4)
	c.Insert(a)
	c.Insert(b)
	if !c.Remove(a) {
		t.Fatal("remove of resident block failed")
	}
	if c.Lookup(a) {
		t.Fatal("removed block still present")
	}
	if c.Remove(a) {
		t.Fatal("second remove reported success")
	}
	// Freed way is reused without eviction.
	if _, ev := c.Insert(blk(3, 0, 4)); ev {
		t.Fatal("insert into freed way evicted")
	}
}

func TestVictimOf(t *testing.T) {
	c := NewSetAssoc(4, 2)
	a := blk(1, 0, 4)
	b := blk(2, 0, 4)
	if _, ok := c.VictimOf(a); ok {
		t.Fatal("empty set should have no victim")
	}
	c.Insert(a)
	c.Insert(b)
	v, ok := c.VictimOf(blk(3, 0, 4))
	if !ok || v != a {
		t.Fatalf("VictimOf=(%v,%v), want a", v, ok)
	}
	if _, ok := c.VictimOf(a); ok {
		t.Fatal("resident block should have no victim")
	}
	// VictimOf must not mutate.
	v2, _ := c.VictimOf(blk(3, 0, 4))
	if v2 != v {
		t.Fatal("VictimOf mutated replacement state")
	}
}

func TestWayOf(t *testing.T) {
	c := NewSetAssoc(4, 4)
	blocks := []mem.Block{blk(1, 2, 4), blk(2, 2, 4), blk(3, 2, 4)}
	for _, b := range blocks {
		c.Insert(b)
	}
	seen := map[int]bool{}
	for _, b := range blocks {
		w, ok := c.WayOf(b)
		if !ok {
			t.Fatalf("WayOf missed resident block %v", b)
		}
		if seen[w] {
			t.Fatalf("two blocks share way %d", w)
		}
		seen[w] = true
	}
	if _, ok := c.WayOf(blk(9, 2, 4)); ok {
		t.Fatal("WayOf found an absent block")
	}
}

func TestSetsIsolated(t *testing.T) {
	c := NewSetAssoc(8, 1)
	for s := 0; s < 8; s++ {
		c.Insert(blk(7, s, 8))
	}
	if validLines(c) != 8 {
		t.Fatalf("occupancy %d, want 8: sets must not interfere", validLines(c))
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSetAssoc(3, 2) },
		func() { NewSetAssoc(4, 0) },
		func() { NewSetAssoc(4, 65) },
		func() { NewSetAssoc(4, 300) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: under a random workload of inserts/touches/removes, LRU ranks
// stay a permutation, occupancy matches a reference set, and lookups agree
// with a reference model.
func TestQuickLRUReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sets, assoc = 4, 3
		c := NewSetAssoc(sets, assoc)
		// Reference: per-set list of blocks, MRU first.
		ref := make([][]mem.Block, sets)
		for step := 0; step < 300; step++ {
			b := blk(uint64(rng.Intn(8)), rng.Intn(sets), sets)
			set := b.SetIndex(sets)
			switch rng.Intn(3) {
			case 0: // insert
				victim, ev := c.Insert(b)
				refIdx := indexOf(ref[set], b)
				if refIdx >= 0 { // already present: refresh
					ref[set] = append([]mem.Block{b}, remove(ref[set], refIdx)...)
					if ev {
						return false
					}
				} else {
					var refVictim mem.Block
					refEv := false
					if len(ref[set]) == assoc {
						refVictim = ref[set][assoc-1]
						ref[set] = ref[set][:assoc-1]
						refEv = true
					}
					ref[set] = append([]mem.Block{b}, ref[set]...)
					if ev != refEv || (ev && victim != refVictim) {
						return false
					}
				}
			case 1: // touch
				hit := c.Touch(b)
				refIdx := indexOf(ref[set], b)
				if hit != (refIdx >= 0) {
					return false
				}
				if refIdx >= 0 {
					ref[set] = append([]mem.Block{b}, remove(ref[set], refIdx)...)
				}
			case 2: // remove
				ok := c.Remove(b)
				refIdx := indexOf(ref[set], b)
				if ok != (refIdx >= 0) {
					return false
				}
				if refIdx >= 0 {
					ref[set] = remove(ref[set], refIdx)
				}
			}
			if err := c.checkLRUPermutation(); err != nil {
				return false
			}
			total := 0
			for s := range ref {
				total += len(ref[s])
				for _, rb := range ref[s] {
					if !c.Lookup(rb) {
						return false
					}
				}
			}
			if validLines(c) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func indexOf(s []mem.Block, b mem.Block) int {
	for i, v := range s {
		if v == b {
			return i
		}
	}
	return -1
}

func remove(s []mem.Block, i int) []mem.Block {
	out := make([]mem.Block, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

func TestTouchAtInsertAtIndices(t *testing.T) {
	c := NewSetAssoc(4, 2)
	idx, victim, evicted := c.InsertAt(0) // set 0
	if evicted || idx != 0 {
		t.Fatalf("first insert landed at %d (evicted=%v), want way 0", idx, evicted)
	}
	idx2, _, _ := c.InsertAt(4) // same set, second way
	if idx2 != 1 {
		t.Fatalf("second insert landed at %d, want way 1", idx2)
	}
	// Touching block 0 must report its stable index.
	if got, ok := c.TouchAt(0); !ok || got != idx {
		t.Fatalf("TouchAt(0) = (%d,%v), want (%d,true)", got, ok, idx)
	}
	if _, ok := c.TouchAt(8); ok {
		t.Fatal("TouchAt reported a hit for an absent block")
	}
	// Evicting: block 4 is now LRU; inserting block 8 must reuse its index
	// and report it as victim.
	idx3, v, ev := c.InsertAt(8)
	if !ev || v != 4 || idx3 != idx2 {
		t.Fatalf("InsertAt(8) = (%d,%v,%v), want victim 4 at index %d", idx3, v, ev, idx2)
	}
	if victim != 0 {
		_ = victim
	}
	// Re-inserting a present block refreshes recency and returns its index.
	idx4, _, ev4 := c.InsertAt(0)
	if ev4 || idx4 != idx {
		t.Fatalf("re-insert of present block: index %d evicted=%v, want %d", idx4, ev4, idx)
	}
}

func TestAppendLinesInReusesBuffer(t *testing.T) {
	c := NewSetAssoc(2, 4)
	for i := 0; i < 4; i++ {
		c.Insert(mem.Block(i * 2)) // all in set 0
	}
	buf := make([]Line, 0, 4)
	got := c.AppendLinesIn(buf[:0], 0)
	if len(got) != 4 {
		t.Fatalf("%d lines, want 4", len(got))
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendLinesIn reallocated despite sufficient capacity")
	}
	// Must agree with a fresh slice.
	want := c.AppendLinesIn(nil, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendLinesIn[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if n := len(c.AppendLinesIn(nil, 1)); n != 0 {
		t.Fatalf("empty set reported %d lines", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = c.AppendLinesIn(buf[:0], 0)
	}); allocs != 0 {
		t.Fatalf("AppendLinesIn allocates %.1f per call with a reused buffer", allocs)
	}
}
