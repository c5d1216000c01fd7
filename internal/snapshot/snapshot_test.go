package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/nuca"
	"tlc/internal/tlcache"
	"tlc/internal/workload"
)

// fixture builds a small but non-trivial checkpoint: a warmed core, a
// warmed TLC cache, and an advanced generator.
func fixture(t *testing.T, seed int64) Checkpoint {
	t.Helper()
	spec, ok := workload.SpecByName("oltp")
	if !ok {
		t.Fatal("oltp spec missing")
	}
	cache := tlcache.New(config.TLC, 300)
	gen := workload.New(spec, seed)
	core := cpu.New(config.DefaultSystem(), cache)
	core.Warm(gen, 100_000)
	return Checkpoint{
		Cores: []cpu.State{core.Snapshot()},
		L2:    cache.SnapshotState(),
		Gens:  []workload.CMPState{{Gen: gen.State()}},
	}
}

func key(i int) Key {
	return Key{Config: "cfghash", Bench: fmt.Sprintf("bench%d", i), Seed: 1, Warm: 1000}
}

func TestStoreMemoryRoundTrip(t *testing.T) {
	s := NewStore(4, "")
	ckp := fixture(t, 1)
	k := key(0)
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put(k, ckp)
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("stored checkpoint not found")
	}
	if !reflect.DeepEqual(got, ckp) {
		t.Fatal("retrieved checkpoint differs from the stored one")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.DiskHits != 0 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put / 0 disk hits", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2, "")
	ckp := fixture(t, 1)
	s.Put(key(0), ckp)
	s.Put(key(1), ckp)
	s.Get(key(0)) // refresh 0: 1 becomes LRU
	s.Put(key(2), ckp)
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := s.Get(key(2)); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	ckp := fixture(t, 2)
	k := key(7)

	// Write through one store, read through a fresh one: simulates a new
	// process reusing -ckptdir.
	NewStore(4, dir).Put(k, ckp)
	s2 := NewStore(4, dir)
	got, ok := s2.Get(k)
	if !ok {
		t.Fatal("checkpoint not found on disk by a fresh store")
	}
	if !reflect.DeepEqual(got, ckp) {
		t.Fatal("disk round-trip changed the checkpoint")
	}
	st := s2.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("disk hits %d, want 1", st.DiskHits)
	}
	// Second Get is served from memory.
	if _, ok := s2.Get(k); !ok {
		t.Fatal("promoted checkpoint missing from memory tier")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v, want 2 hits with 1 from disk", st)
	}
	if err := s2.DiskErr(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDiskCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	ckp := fixture(t, 3)
	k := key(9)
	NewStore(4, dir).Put(k, ckp)
	// Truncate the file: a fresh store must treat it as a miss, not crash.
	name := filepath.Join(dir, k.filename())
	if err := os.Truncate(name, 16); err != nil {
		t.Fatal(err)
	}
	s := NewStore(4, dir)
	if _, ok := s.Get(k); ok {
		t.Fatal("truncated checkpoint was served")
	}
	if s.DiskErr() == nil {
		t.Fatal("corruption was not surfaced via DiskErr")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	// Hammer one store from many goroutines mixing Put and Get across a
	// small key space; run under -race this exercises the locking, and the
	// restored checkpoints must always be internally consistent.
	s := NewStore(4, t.TempDir())
	ckps := []Checkpoint{fixture(t, 1), fixture(t, 2)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 6)
				if (i+w)%3 == 0 {
					s.Put(k, ckps[i%2])
				} else if ckp, ok := s.Get(k); ok {
					// Restore into a private cache: Get results must be
					// usable concurrently.
					c := tlcache.New(config.TLC, 300)
					if err := c.RestoreState(ckp.L2); err != nil {
						t.Error(err)
						return
					}
					if !c.Contains(mem.Block(0)) && !c.Contains(mem.Block(1)) {
						// Sanity touch so the restore is not optimized away;
						// warmed fixtures contain plenty of low blocks, but
						// either way this is just a read.
						_ = c
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := s.DiskErr(); err != nil {
		t.Fatal(err)
	}
}

func TestGobHandlesAllDesignStates(t *testing.T) {
	// Every design's state must survive the disk tier: the gob registry
	// must cover SNUCA, DNUCA, and the TLC family.
	dir := t.TempDir()
	states := map[string]l2.State{
		"snuca": nuca.NewSNUCA(300).SnapshotState(),
		"dnuca": nuca.NewDNUCA(300).SnapshotState(),
		"tlc":   tlcache.New(config.TLCOpt500, 300).SnapshotState(),
	}
	base := fixture(t, 4)
	for name, st := range states {
		k := Key{Config: "cfg", Bench: name, Seed: 1, Warm: 10}
		ckp := base
		ckp.L2 = st
		NewStore(4, dir).Put(k, ckp)
		got, ok := NewStore(4, dir).Get(k)
		if !ok {
			t.Fatalf("%s: checkpoint not found on disk", name)
		}
		if !reflect.DeepEqual(got.L2, st) {
			t.Fatalf("%s: L2 state changed across the disk tier", name)
		}
	}
}
