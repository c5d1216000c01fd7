package snapshot

import (
	"container/list"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Stats counts cache traffic, for tests and the harnesses' cache
// reporting.
type Stats struct {
	// Hits counts Get calls satisfied from memory or disk.
	Hits uint64
	// DiskHits counts the subset of Hits served by reading the disk tier.
	DiskHits uint64
	// Misses counts Get calls that found nothing.
	Misses uint64
	// Puts counts values stored.
	Puts uint64
}

// Cache is a bounded in-process LRU with an optional on-disk tier: the one
// cache type behind the checkpoint Store, the ProfileStore and tlcd's
// result cache. Values are shared with the cache once stored; callers treat
// them as read-only. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	dir     string
	name    func(K) string // the file name of a key's disk record
	order   *list.List     // front = most recently used; values are *record
	items   map[K]*list.Element
	stats   Stats
	diskErr error // first disk failure, reported once via DiskErr
}

// record is one entry, in memory and on disk. The key rides along on disk
// so a load verifies it got the value it asked for (hash-named files could
// collide in principle). Value is a pointer so that a file whose value
// field does not decode — one written in another layout — reads back nil,
// a miss, rather than a zero value.
type record[K comparable, V any] struct {
	Key   K
	Value *V
}

// NewCache builds a cache holding up to capacity values in memory (at
// least one: a smaller capacity would evict every value as it is stored).
// If dir is non-empty, values are also written there under name(key), Get
// falls back to disk on a memory miss, and the directory is created on
// first use.
func NewCache[K comparable, V any](capacity int, dir string, name func(K) string) *Cache[K, V] {
	return &Cache[K, V]{
		cap:   max(capacity, 1),
		dir:   dir,
		name:  name,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the value for k, consulting memory, then disk. A disk hit is
// promoted into the memory tier. The disk read runs outside the lock, so
// one caller's decode never stalls another's lookup of a different key.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		// A refresh replaces the record's pointer, never the value it
		// points to, so the value is read after the lock drops.
		v := el.Value.(*record[K, V]).Value
		c.mu.Unlock()
		return *v, true
	}
	c.mu.Unlock()
	var v *V
	var err error
	if c.dir != "" {
		v, err = c.load(k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteDiskErr(err)
	if v == nil {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.insertLocked(k, v)
	c.stats.Hits++
	c.stats.DiskHits++
	return *v, true
}

// Has reports whether a value for k is resident in memory or present on
// the disk tier. Unlike Get it moves no LRU state, reads no disk payload,
// and leaves the traffic stats untouched — the lane pass probes with it to
// decide which lanes still need warming without perturbing the hit/miss
// accounting of the runs themselves.
func (c *Cache[K, V]) Has(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[k]; ok {
		return true
	}
	if c.dir == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(c.dir, c.name(k)))
	return err == nil
}

// Put stores v for k, evicting the least-recently-used entry if the memory
// tier is full, and writes it to the disk tier if configured. The encode
// and write run outside the lock; the temp-file rename keeps concurrent
// readers from seeing a torn record. The caller must not mutate v's shared
// state after Put.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	c.insertLocked(k, &v)
	c.stats.Puts++
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	err := c.save(k, &v)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteDiskErr(err)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DiskErr reports the first disk-tier failure, if any. Disk problems
// degrade the cache to memory-only rather than failing runs; callers that
// care (the CLIs) surface this as a warning.
func (c *Cache[K, V]) DiskErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.diskErr
}

// noteDiskErr records err as the first disk failure, if it is one. Caller
// holds mu.
func (c *Cache[K, V]) noteDiskErr(err error) {
	if err != nil && c.diskErr == nil {
		c.diskErr = err
	}
}

// insertLocked adds or refreshes a memory-tier entry. Caller holds mu.
func (c *Cache[K, V]) insertLocked(k K, v *V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*record[K, V]).Value = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&record[K, V]{Key: k, Value: v})
	for len(c.items) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*record[K, V]).Key)
	}
}

// save writes the record to the disk tier atomically: encode into a temp
// file in the same directory, then rename over the final name, so a reader
// — or a process killed mid-write — never observes a torn record. It
// touches no cache state, so callers run it without mu.
func (c *Cache[K, V]) save(k K, v *V) error {
	name := c.name(k)
	err := func() error {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(c.dir, name+".*.tmp")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		if err := gob.NewEncoder(tmp).Encode(record[K, V]{Key: k, Value: v}); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		return os.Rename(tmp.Name(), filepath.Join(c.dir, name))
	}()
	if err != nil {
		return fmt.Errorf("snapshot: writing %v: %w", k, err)
	}
	return nil
}

// load reads k's value from the disk tier, or returns nil. An absent file
// is a plain miss. A file that does not decode (truncated), holds another
// key (a hash collision) or has no value (another layout) is a miss too,
// so the caller recomputes and its Put replaces the file; only the first
// of those cannot be explained without damage, so only it returns an
// error, for DiskErr. It touches no cache state, so callers run it without
// mu.
func (c *Cache[K, V]) load(k K) (*V, error) {
	f, err := os.Open(filepath.Join(c.dir, c.name(k)))
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	var rec record[K, V]
	if err := gob.NewDecoder(f).Decode(&rec); err != nil {
		return nil, fmt.Errorf("snapshot: reading %v: %w", k, err)
	}
	if rec.Key != k {
		return nil, nil
	}
	return rec.Value, nil
}
