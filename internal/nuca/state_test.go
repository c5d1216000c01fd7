package nuca

import (
	"math/rand"
	"slices"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

// warmBlocks installs a pseudo-random working set functionally.
func warmBlocks(c l2.Cache, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c.Warm(mem.Block(rng.Int63n(1 << 20)))
	}
}

// replayCompare drives both caches with an identical timed request stream
// and fails on the first diverging outcome.
func replayCompare(t *testing.T, a, b l2.Cache, seed int64, n int) {
	t.Helper()
	r1 := rand.New(rand.NewSource(seed))
	r2 := rand.New(rand.NewSource(seed))
	var at sim.Time
	for i := 0; i < n; i++ {
		at += sim.Time(r1.Intn(50))
		r2.Intn(50)
		req := mem.Request{Block: mem.Block(r1.Int63n(1 << 20)), Type: mem.Load}
		if r1.Intn(8) == 0 {
			req.Type = mem.Store
		}
		req2 := mem.Request{Block: mem.Block(r2.Int63n(1 << 20)), Type: mem.Load}
		if r2.Intn(8) == 0 {
			req2.Type = mem.Store
		}
		o1 := a.Access(at, req)
		o2 := b.Access(at, req2)
		if o1 != o2 {
			t.Fatalf("request %d: original %+v, restored %+v", i, o1, o2)
		}
	}
}

func TestSNUCASnapshotRoundTrip(t *testing.T) {
	orig := NewSNUCA(300)
	warmBlocks(orig, 1, 200_000)
	st := orig.SnapshotState()

	restored := NewSNUCA(300)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	replayCompare(t, orig, restored, 2, 50_000)
}

func TestSNUCASnapshotIsDeepCopy(t *testing.T) {
	orig := NewSNUCA(300)
	warmBlocks(orig, 3, 100_000)
	st := orig.SnapshotState()
	// Mutate the original heavily, then restore two fresh caches from the
	// same state: if the snapshot aliased the original, they would differ.
	warmBlocks(orig, 4, 100_000)
	a, b := NewSNUCA(300), NewSNUCA(300)
	if err := a.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	warmBlocks(a, 5, 100_000) // mutate a restored cache too
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	fresh := NewSNUCA(300)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		blk := mem.Block(rng.Int63n(1 << 20))
		if fresh.Contains(blk) != b.Contains(blk) {
			t.Fatal("snapshot state was mutated through an aliased restore")
		}
	}
}

func TestSNUCARestoreRejectsWrongType(t *testing.T) {
	if err := NewSNUCA(300).RestoreState(DNUCAState{}); err == nil {
		t.Fatal("SNUCA accepted a DNUCA state")
	}
}

func TestDNUCASnapshotRoundTrip(t *testing.T) {
	orig := NewDNUCA(300)
	warmBlocks(orig, 7, 200_000)
	st := orig.SnapshotState()

	restored := NewDNUCA(300)
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	replayCompare(t, orig, restored, 8, 50_000)
}

func TestDNUCARestoreRejectsWrongType(t *testing.T) {
	if err := NewDNUCA(300).RestoreState(SNUCAState{}); err == nil {
		t.Fatal("DNUCA accepted a SNUCA state")
	}
}

// damagedShadows returns copies of a partial-tag state, each with one
// entry disagreeing with the arrays it shadows: a valid entry's tag
// flipped, a valid entry cleared, an invalid entry set, and an invalid
// entry holding a byte no shadow writes.
func damagedShadows(t *testing.T, st cache.PartialTagsState) []cache.PartialTagsState {
	t.Helper()
	valid := slices.IndexFunc(st.Entry, func(e uint8) bool { return e != 0 })
	invalid := slices.Index(st.Entry, 0)
	if valid < 0 || invalid < 0 {
		t.Fatal("shadow needs both valid and invalid entries")
	}
	damage := func(f func(*cache.PartialTagsState)) cache.PartialTagsState {
		d := st
		d.Entry = slices.Clone(st.Entry)
		f(&d)
		return d
	}
	return []cache.PartialTagsState{
		damage(func(d *cache.PartialTagsState) { d.Entry[valid] ^= 1 }),
		damage(func(d *cache.PartialTagsState) { d.Entry[valid] = 0 }),
		damage(func(d *cache.PartialTagsState) { d.Entry[invalid] = 0x40 }),
		damage(func(d *cache.PartialTagsState) { d.Entry[invalid] = 0x80 }),
	}
}

func TestDNUCARestoreRejectsInconsistentPartialTags(t *testing.T) {
	orig := NewDNUCA(300)
	warmBlocks(orig, 5, 50_000)
	st := orig.SnapshotState().(DNUCAState)
	if err := NewDNUCA(300).RestoreState(st); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	const col = 3
	for i, bad := range damagedShadows(t, st.PTags[col]) {
		damaged := DNUCAState{Banks: st.Banks, PTags: slices.Clone(st.PTags)}
		damaged.PTags[col] = bad
		if err := NewDNUCA(300).RestoreState(damaged); err == nil {
			t.Errorf("damage %d: restore accepted a shadow that disagrees with its banks", i)
		}
	}
}
