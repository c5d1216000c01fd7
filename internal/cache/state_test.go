package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"tlc/internal/mem"
)

// churn applies n random inserts/touches/removes to c.
func churn(c *SetAssoc, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		b := mem.Block(rng.Intn(4 * c.Blocks()))
		switch rng.Intn(4) {
		case 0:
			c.Remove(b)
		case 1:
			c.Touch(b)
		default:
			c.Insert(b)
		}
	}
}

func TestSetAssocSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewSetAssoc(64, 8)
	churn(c, rng, 5000)
	st := c.Snapshot()

	// A fresh array restored from the state must behave identically: replay
	// the same operation stream on both and compare outcomes.
	c2 := NewSetAssoc(64, 8)
	if err := c2.Restore(st); err != nil {
		t.Fatal(err)
	}
	opRNG1 := rand.New(rand.NewSource(2))
	opRNG2 := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		b := mem.Block(opRNG1.Intn(4 * c.Blocks()))
		if b2 := mem.Block(opRNG2.Intn(4 * c.Blocks())); b2 != b {
			t.Fatal("op streams diverged")
		}
		v1, e1 := c.Insert(b)
		v2, e2 := c2.Insert(b)
		if v1 != v2 || e1 != e2 {
			t.Fatalf("op %d: original evicted (%v,%v), restored evicted (%v,%v)", i, v1, e1, v2, e2)
		}
	}
	if err := c2.checkLRUPermutation(); err != nil {
		t.Fatal(err)
	}
}

func TestSetAssocSnapshotIsDeepCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewSetAssoc(16, 4)
	churn(c, rng, 500)
	st := c.Snapshot()
	occ := stateLines(st)
	churn(c, rng, 500)
	if occ != stateLines(st) {
		t.Fatal("mutating the array changed a captured snapshot")
	}
	// Restoring must also not alias: mutate the array after restore and
	// confirm the state is unchanged by restoring into a second array.
	c2 := NewSetAssoc(16, 4)
	if err := c2.Restore(st); err != nil {
		t.Fatal(err)
	}
	churn(c2, rng, 500)
	c3 := NewSetAssoc(16, 4)
	if err := c3.Restore(st); err != nil {
		t.Fatal(err)
	}
	if validLines(c3) != occ {
		t.Fatal("mutating a restored array changed the stored state")
	}
}

func TestSetAssocRestoreRejectsGeometryMismatch(t *testing.T) {
	st := NewSetAssoc(64, 8).Snapshot()
	if err := NewSetAssoc(32, 8).Restore(st); err == nil {
		t.Fatal("restore accepted a state with the wrong set count")
	}
	if err := NewSetAssoc(64, 4).Restore(st); err == nil {
		t.Fatal("restore accepted a state with the wrong associativity")
	}
	st.Lines = st.Lines[:10]
	if err := NewSetAssoc(64, 8).Restore(st); err == nil {
		t.Fatal("restore accepted truncated state arrays")
	}
}

// stateLines counts the occupied ways of a captured state.
func stateLines(st SetAssocState) int {
	n := 0
	for _, b := range st.Lines {
		if b != invalidLine {
			n++
		}
	}
	return n
}

// TestSetAssocRestoreRejectsCorruptContents pins the content checks a
// checkpoint read from disk must pass: recency ranks that are not a
// permutation would leave victim selection without an LRU way, and a line
// stored outside its set would never be found. Each fails the restore
// before the array changes. An empty way is the array's own sentinel, so
// a state whose ways hold it restores.
func TestSetAssocRestoreRejectsCorruptContents(t *testing.T) {
	c := NewSetAssoc(64, 8)
	for b := mem.Block(0); b < 300; b++ {
		c.Insert(b)
	}
	good := c.Snapshot()
	clone := func() SetAssocState {
		st := good
		st.Lines = append([]mem.Block(nil), good.Lines...)
		st.LRU = append([]uint8(nil), good.LRU...)
		return st
	}
	dupRank := clone()
	dupRank.LRU[1] = dupRank.LRU[0]
	bigRank := clone()
	bigRank.LRU[0] = 8
	// A rank beyond the first 64 would set no bit of a one-word mask.
	farRank := clone()
	farRank.LRU[8*63+7] = 200
	misplaced := clone()
	misplaced.Lines[0] = 1 // set 0 holds a set-1 block
	// The last set's empty way filled with a block of set 0.
	misplacedEmpty := clone()
	misplacedEmpty.Lines[63*8+7] = 64
	for name, st := range map[string]SetAssocState{
		"duplicate rank": dupRank, "rank >= assoc": bigRank, "rank >= 64": farRank,
		"misplaced line": misplaced, "misplaced line in an empty way": misplacedEmpty,
	} {
		dst := NewSetAssoc(64, 8)
		if err := dst.Restore(st); err == nil {
			t.Errorf("%s: restore accepted a corrupt state", name)
		}
		if !reflect.DeepEqual(dst.Snapshot(), NewSetAssoc(64, 8).Snapshot()) {
			t.Errorf("%s: rejected restore changed the array", name)
		}
	}
	if err := NewSetAssoc(64, 8).Restore(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	if stateLines(good) == len(good.Lines) {
		t.Fatal("the valid state has no empty way")
	}
}

// TestSetAssocRestoreWidestSet restores the widest set the array admits,
// 64 ways, whose ranks fill every bit of the check's word.
func TestSetAssocRestoreWidestSet(t *testing.T) {
	c := NewSetAssoc(2, 64)
	churn(c, rand.New(rand.NewSource(6)), 500)
	st := c.Snapshot()
	dst := NewSetAssoc(2, 64)
	if err := dst.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.Snapshot(), st) {
		t.Fatal("restored array differs from its state")
	}
	st.LRU = append([]uint8(nil), st.LRU...)
	st.LRU[64+5] = st.LRU[64+6]
	if err := NewSetAssoc(2, 64).Restore(st); err == nil {
		t.Fatal("restore accepted a duplicate rank in a 64-way set")
	}
}

func TestPartialTagsSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPartialTags(32, 4, 8)
	for i := 0; i < 2000; i++ {
		b := mem.Block(rng.Intn(1 << 14))
		bank := rng.Intn(4)
		way := rng.Intn(8)
		if rng.Intn(5) == 0 {
			p.Clear(b, bank, way)
		} else {
			p.Install(b, bank, way)
		}
	}
	st := p.Snapshot()
	p2 := NewPartialTags(32, 4, 8)
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		b := mem.Block(rng.Intn(1 << 14))
		for bank := 0; bank < 4; bank++ {
			if p.MatchCount(b, bank) != p2.MatchCount(b, bank) {
				t.Fatalf("restored shadow disagrees on block %d bank %d", b, bank)
			}
		}
	}
	// Deep copy: mutating the original must not change the snapshot.
	p.Install(mem.Block(1), 0, 0)
	p3 := NewPartialTags(32, 4, 8)
	if err := p3.Restore(st); err != nil {
		t.Fatal(err)
	}
	if p3.MatchCount(mem.Block(1), 0) != p2.MatchCount(mem.Block(1), 0) {
		// p2 was restored before the mutation; p3 after. Equal counts mean
		// the snapshot was unaffected.
		t.Fatal("mutating the shadow changed a captured snapshot")
	}
	// The exported layout round-trips exactly.
	if !reflect.DeepEqual(p2.Snapshot(), st) {
		t.Fatal("snapshot of a restored shadow differs from the state it restored")
	}
}

// TestPartialTagsRestoreRejectsWideTag pins the entry check: an entry is
// 0 or the valid mark over a six-bit tag. A byte at or above 0x80 would
// break the word scan in Masks, and one in 0x01–0x3f names a tag without
// the valid mark, which no lookup matches.
func TestPartialTagsRestoreRejectsWideTag(t *testing.T) {
	p := NewPartialTags(32, 4, 8)
	p.Install(mem.Block(5), 2, 3)
	good := p.Snapshot()
	i := (5*4+2)*8 + 3
	if good.Entry[i] != ptagValid|mem.Block(5).PartialTag(32) {
		t.Fatalf("installed entry %#x in the exported layout", good.Entry[i])
	}
	for _, e := range []uint8{0x80, 0xc5, 0xff, 0x01, 0x3f} {
		for _, at := range []int{i, 0} {
			st := good
			st.Entry = append([]uint8(nil), good.Entry...)
			st.Entry[at] = e
			dst := NewPartialTags(32, 4, 8)
			if err := dst.Restore(st); err == nil {
				t.Errorf("restore accepted entry %#x at %d", e, at)
			}
			if !reflect.DeepEqual(dst.Snapshot(), NewPartialTags(32, 4, 8).Snapshot()) {
				t.Errorf("rejected entry %#x at %d changed the shadow", e, at)
			}
		}
	}
}

// TestPartialTagsRestoreEntryRule checks the word-wise entry check against
// the rule byte by byte: every value at every position of a shadow whose
// ten entries fill one word and two tail bytes.
func TestPartialTagsRestoreEntryRule(t *testing.T) {
	p := NewPartialTags(2, 1, 5)
	for at := range 10 {
		for v := range 256 {
			st := p.Snapshot()
			st.Entry[at] = uint8(v)
			want := v == 0 || v&0xc0 == ptagValid
			if got := NewPartialTags(2, 1, 5).Restore(st) == nil; got != want {
				t.Fatalf("entry %#x at %d: restored %v, want %v", v, at, got, want)
			}
		}
	}
}

func TestPartialTagsRestoreRejectsGeometryMismatch(t *testing.T) {
	st := NewPartialTags(32, 4, 8).Snapshot()
	if err := NewPartialTags(32, 8, 8).Restore(st); err == nil {
		t.Fatal("restore accepted a state with the wrong bank count")
	}
	st.Entry = st.Entry[:5]
	if err := NewPartialTags(32, 4, 8).Restore(st); err == nil {
		t.Fatal("restore accepted truncated state arrays")
	}
}
