package snapshot

// ProfileStore caches phase profiles (sample.Profile): the clustering a
// phase-sampled run needs, keyed by the workload content key the caller
// computes. Same tiering as the checkpoint Store — bounded in-process LRU
// plus an optional gob disk tier with atomic temp-file + rename writes and
// corrupt-degrades-to-miss.

import (
	"container/list"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"tlc/internal/sample"
)

// ProfileStats counts profile-store traffic.
type ProfileStats struct {
	// Hits counts Get calls satisfied from memory or disk.
	Hits uint64
	// DiskHits counts the subset of Hits served by reading the disk tier.
	DiskHits uint64
	// Misses counts Get calls that found nothing anywhere.
	Misses uint64
	// Puts counts profiles stored.
	Puts uint64
}

// ProfileStore is a bounded in-process LRU of phase profiles with an
// optional disk tier. All methods are safe for concurrent use.
type ProfileStore struct {
	mu      sync.Mutex
	cap     int
	dir     string
	order   *list.List // front = most recently used; values are *profileEntry
	items   map[string]*list.Element
	stats   ProfileStats
	diskErr error
}

type profileEntry struct {
	key  string
	prof sample.Profile
}

// profileEnvelope is the on-disk record; the key rides along so a load
// verifies it got the profile it asked for.
type profileEnvelope struct {
	Key     string
	Profile sample.Profile
}

// DefaultProfileCapacity bounds the in-process tier. Profiles are a few
// kilobytes each (feature rows dominate), so this comfortably covers the
// benchmark grid times several sampling shapes.
const DefaultProfileCapacity = 256

// NewProfileStore builds a store holding up to capacity profiles in memory
// (DefaultProfileCapacity if capacity <= 0). If dir is non-empty, profiles
// are also written there and Get falls back to disk on a memory miss;
// the directory is created on first use.
func NewProfileStore(capacity int, dir string) *ProfileStore {
	if capacity <= 0 {
		capacity = DefaultProfileCapacity
	}
	return &ProfileStore{
		cap:   capacity,
		dir:   dir,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// profileFilename is the key's on-disk name, FNV-hashed like checkpoint
// files; the "prof-" prefix keeps the two tiers distinct in a shared dir.
func profileFilename(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("prof-%016x.gob", h.Sum64())
}

// Get returns the profile for key, consulting memory, then disk. A disk
// hit is promoted into the memory tier.
func (s *ProfileStore) Get(key string) (sample.Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.order.MoveToFront(el)
		s.stats.Hits++
		return el.Value.(*profileEntry).prof, true
	}
	if s.dir != "" {
		if prof, ok := s.load(key); ok {
			s.insertLocked(key, prof)
			s.stats.Hits++
			s.stats.DiskHits++
			return prof, true
		}
	}
	s.stats.Misses++
	return sample.Profile{}, false
}

// Put stores the profile for key, evicting the least-recently-used entry
// if the memory tier is full, and writes it to the disk tier if
// configured. The caller must not mutate prof's slices after Put.
func (s *ProfileStore) Put(key string, prof sample.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(key, prof)
	s.stats.Puts++
	if s.dir != "" {
		s.save(key, prof)
	}
}

// Stats returns a snapshot of the traffic counters.
func (s *ProfileStore) Stats() ProfileStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DiskErr reports the first disk-tier failure, if any; disk problems
// degrade the store to memory-only rather than failing runs.
func (s *ProfileStore) DiskErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diskErr
}

// insertLocked adds or refreshes a memory-tier entry. Caller holds mu.
func (s *ProfileStore) insertLocked(key string, prof sample.Profile) {
	if el, ok := s.items[key]; ok {
		el.Value.(*profileEntry).prof = prof
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&profileEntry{key: key, prof: prof})
	for len(s.items) > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*profileEntry).key)
	}
}

// save writes the profile to the disk tier atomically: encode into a temp
// file in the same directory, then rename over the final name, so a reader
// — or a process killed mid-write — never observes a torn profile. Caller
// holds mu.
func (s *ProfileStore) save(key string, prof sample.Profile) {
	err := func() error {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(s.dir, "prof-*.tmp")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name())
		if err := gob.NewEncoder(tmp).Encode(profileEnvelope{Key: key, Profile: prof}); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		return os.Rename(tmp.Name(), filepath.Join(s.dir, profileFilename(key)))
	}()
	if err != nil && s.diskErr == nil {
		s.diskErr = fmt.Errorf("snapshot: writing profile %s: %w", key, err)
	}
}

// load reads a profile from the disk tier. A truncated or foreign file —
// possible only outside save's atomic rename path — degrades to a miss, so
// the caller recomputes instead of clustering on garbage. Caller holds mu.
func (s *ProfileStore) load(key string) (sample.Profile, bool) {
	f, err := os.Open(filepath.Join(s.dir, profileFilename(key)))
	if err != nil {
		return sample.Profile{}, false // absent: a plain miss, not an error
	}
	defer f.Close()
	var env profileEnvelope
	if err := gob.NewDecoder(f).Decode(&env); err != nil || env.Key != key {
		if err != nil && s.diskErr == nil {
			s.diskErr = fmt.Errorf("snapshot: reading profile %s: %w", key, err)
		}
		return sample.Profile{}, false
	}
	return env.Profile, true
}
