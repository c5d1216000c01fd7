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
	occ := 0
	for _, v := range st.Valid {
		if v {
			occ++
		}
	}
	churn(c, rng, 500)
	occAfter := 0
	for _, v := range st.Valid {
		if v {
			occAfter++
		}
	}
	if occ != occAfter {
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

// TestSetAssocRestoreRejectsCorruptContents pins the content checks a
// checkpoint read from disk must pass: recency ranks that are not a
// permutation would leave victim selection without an LRU way, and a line
// stored outside its set would never be found. Either fails the restore
// before the array changes.
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
	misplaced := clone()
	misplaced.Lines[0] = 1 // set 0 holds a set-1 block
	for name, st := range map[string]SetAssocState{"duplicate rank": dupRank, "rank >= assoc": bigRank, "misplaced line": misplaced} {
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
}

func TestPartialTagsSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPartialTags(32, 4, 8)
	for i := 0; i < 2000; i++ {
		b := mem.Block(rng.Intn(1 << 14))
		bank := rng.Intn(4)
		way := rng.Intn(8)
		if rng.Intn(5) == 0 {
			p.SyncSet(b.SetIndex(32), bank, nil)
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

func TestPartialTagsRestoreRejectsWideTag(t *testing.T) {
	p := NewPartialTags(32, 4, 8)
	p.Install(mem.Block(5), 2, 3)
	st := p.Snapshot()
	i := (5*4+2)*8 + 3
	if !st.Valid[i] {
		t.Fatal("installed entry not valid in the exported layout")
	}
	st.Tags[i] |= 0x40
	if err := NewPartialTags(32, 4, 8).Restore(st); err == nil {
		t.Fatal("restore accepted a valid tag wider than six bits")
	}
}

func TestPartialTagsRestoreRejectsGeometryMismatch(t *testing.T) {
	st := NewPartialTags(32, 4, 8).Snapshot()
	if err := NewPartialTags(32, 8, 8).Restore(st); err == nil {
		t.Fatal("restore accepted a state with the wrong bank count")
	}
	st.Tags = st.Tags[:5]
	if err := NewPartialTags(32, 4, 8).Restore(st); err == nil {
		t.Fatal("restore accepted truncated state arrays")
	}
}
