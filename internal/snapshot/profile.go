package snapshot

import (
	"fmt"
	"hash/fnv"

	"tlc/internal/sample"
)

// ProfileStore caches phase profiles (sample.Profile): the clustering a
// phase-sampled run needs, keyed by the workload content key the caller
// computes. Same Cache as the checkpoint Store.
type ProfileStore = Cache[string, sample.Profile]

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
	return NewCache[string, sample.Profile](capacity, dir, profileFilename)
}

// profileFilename is the key's on-disk name, FNV-hashed like checkpoint
// files; the "prof-" prefix keeps the two tiers distinct in a shared dir.
func profileFilename(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return fmt.Sprintf("prof-%016x.gob", h.Sum64())
}
