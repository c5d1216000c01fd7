package server

import (
	"context"
	"testing"
	"time"

	"tlc"
	"tlc/internal/api"
)

// TestLRUDegenerateCapacity: a capacity of zero (or less) must not build a
// cache that evicts every record immediately after insertion — the
// degenerate loop in add would otherwise disable the result cache with no
// signal. newLRU clamps to one retained entry.
func TestLRUDegenerateCapacity(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		c := newLRU(capacity)
		c.add("k", api.RunRecord{Cycles: 7})
		rec, ok := c.get("k")
		if !ok || rec.Cycles != 7 {
			t.Fatalf("newLRU(%d): just-added record was evicted (ok=%v)", capacity, ok)
		}
		if len(c.items) != 1 {
			t.Fatalf("newLRU(%d): len = %d, want 1", capacity, len(c.items))
		}
	}
}

// TestLRUEvictsLeastRecentlyUsed pins the ordinary eviction order.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(2)
	c.add("a", api.RunRecord{Cycles: 1})
	c.add("b", api.RunRecord{Cycles: 2})
	if _, ok := c.get("a"); !ok { // touch a: b becomes the eviction victim
		t.Fatal("a missing before eviction")
	}
	c.add("c", api.RunRecord{Cycles: 3})
	if _, ok := c.get("b"); ok {
		t.Fatal("least-recently-used entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %s evicted, want retained", k)
		}
	}
}

// TestServerValidatesCacheSize: a negative configured CacheSize must not
// produce a server whose result cache drops every record; it clamps to the
// documented default and the cache works.
func TestServerValidatesCacheSize(t *testing.T) {
	s := New(Config{
		Workers:   1,
		CacheSize: -1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			return stubRecord(d, bench), nil
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	if s.cfg.CacheSize != defaultCacheSize {
		t.Fatalf("CacheSize = %d after New, want clamped default %d", s.cfg.CacheSize, defaultCacheSize)
	}
	s.mu.Lock()
	s.cache.add("k", api.RunRecord{Cycles: 9})
	_, ok := s.cache.get("k")
	s.mu.Unlock()
	if !ok {
		t.Fatal("result cache with clamped capacity dropped a record")
	}
}
