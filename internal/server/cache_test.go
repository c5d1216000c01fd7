package server

import (
	"testing"

	"tlc/internal/api"
	"tlc/internal/snapshot"
)

// TestLRUDegenerateCapacity: a capacity of zero (or less) must not build a
// result cache that evicts every record immediately after insertion — the
// eviction loop would otherwise disable the cache with no signal. The cache
// clamps to one retained entry.
func TestLRUDegenerateCapacity(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		c := snapshot.NewCache[string, api.RunRecord](capacity, "", nil)
		c.Put("k", api.RunRecord{Cycles: 7})
		rec, ok := c.Get("k")
		if !ok || rec.Cycles != 7 {
			t.Fatalf("capacity %d: just-added record was evicted (ok=%v)", capacity, ok)
		}
		c.Put("j", api.RunRecord{Cycles: 8})
		if _, ok := c.Get("k"); ok {
			t.Fatalf("capacity %d: holds two records, want one", capacity)
		}
	}
}

// TestLRUEvictsLeastRecentlyUsed pins the ordinary eviction order of the
// server's result cache at its configured size.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: 2})
	c := s.cache
	c.Put("a", api.RunRecord{Cycles: 1})
	c.Put("b", api.RunRecord{Cycles: 2})
	if _, ok := c.Get("a"); !ok { // touch a: b becomes the eviction victim
		t.Fatal("a missing before eviction")
	}
	c.Put("c", api.RunRecord{Cycles: 3})
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s evicted, want retained", k)
		}
	}
}

// TestServerValidatesCacheSize: a negative configured CacheSize must not
// produce a server whose result cache drops every record; it clamps to the
// documented default and the cache works.
func TestServerValidatesCacheSize(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: -1})
	if s.cfg.CacheSize != defaultCacheSize {
		t.Fatalf("CacheSize = %d after New, want clamped default %d", s.cfg.CacheSize, defaultCacheSize)
	}
	s.cache.Put("k", api.RunRecord{Cycles: 9})
	if _, ok := s.cache.Get("k"); !ok {
		t.Fatal("result cache with clamped capacity dropped a record")
	}
}
