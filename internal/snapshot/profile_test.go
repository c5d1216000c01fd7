package snapshot

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tlc/internal/sample"
)

// testProfile builds a small but fully-populated profile; idx varies the
// contents so distinct keys hold distinct profiles.
func testProfile(key string, idx int) sample.Profile {
	return sample.Profile{
		Version:  sample.ProfileFormat,
		Key:      key,
		Total:    uint64(1000 * (idx + 1)),
		Windows:  4,
		Clusters: 2,
		Features: [][]float64{{1, float64(idx)}, {2, 0}, {3, 1}, {4, 2}},
		Instr:    []uint64{250, 250, 250, 250},
		Assign:   []int{0, 0, 1, 1},
		Reps:     []int{0, 2},
		Weights:  []uint64{500, 500},
	}
}

func TestProfileStoreMemoryRoundTrip(t *testing.T) {
	s := NewProfileStore(4, "")
	want := testProfile("a", 0)
	s.Put("a", want)
	got, ok := s.Get("a")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after Put: ok=%v got=%+v", ok, got)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get of an absent key hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

func TestProfileStoreLRUEviction(t *testing.T) {
	s := NewProfileStore(2, "")
	s.Put("a", testProfile("a", 0))
	s.Put("b", testProfile("b", 1))
	s.Get("a") // refresh a: b is now the LRU entry
	s.Put("c", testProfile("c", 2))
	if _, ok := s.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("recently-used entry %s evicted", k)
		}
	}
}

func TestProfileStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	want := testProfile("a", 0)
	NewProfileStore(4, dir).Put("a", want)

	// A fresh store over the same directory — a later process — reads the
	// profile back from disk.
	fresh := NewProfileStore(4, dir)
	got, ok := fresh.Get("a")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk read-back: ok=%v got=%+v", ok, got)
	}
	st := fresh.Stats()
	if st.DiskHits != 1 {
		t.Errorf("stats %+v, want 1 disk hit", st)
	}
	if err := fresh.DiskErr(); err != nil {
		t.Errorf("disk error %v on a clean round-trip", err)
	}
}

// TestProfileStoreTruncatedFileIsAMiss pins the corruption contract: a
// torn or truncated on-disk profile — possible only outside the atomic
// temp-file + rename write path — degrades to a miss (the caller
// recomputes) instead of an error or, worse, a garbage clustering.
func TestProfileStoreTruncatedFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	NewProfileStore(4, dir).Put("a", testProfile("a", 0))

	files, err := filepath.Glob(filepath.Join(dir, "prof-*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("profile files on disk: %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := NewProfileStore(4, dir)
	if _, ok := fresh.Get("a"); ok {
		t.Fatal("truncated profile served as a hit")
	}
	if fresh.Stats().Misses != 1 {
		t.Errorf("stats %+v, want a miss", fresh.Stats())
	}
	if fresh.DiskErr() == nil {
		t.Error("truncated profile left no diagnostic in DiskErr")
	}
	// The store still works: a recompute overwrites the torn file and the
	// next process reads it back intact.
	want := testProfile("a", 5)
	fresh.Put("a", want)
	got, ok := NewProfileStore(4, dir).Get("a")
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed profile did not replace the torn file")
	}
}

// FuzzProfileStoreLoad writes arbitrary bytes where the disk tier keeps
// key's profile and reads it back through a fresh store. Get must never
// panic. It must either miss, with DiskErr set whenever the bytes do not
// decode, or return exactly the profile of an envelope stored under key.
// The seeds are one real saved profile, the same bytes truncated, and the
// real profile read back under another key.
func FuzzProfileStoreLoad(f *testing.F) {
	dir := f.TempDir()
	NewProfileStore(4, dir).Put("a", testProfile("a", 0))
	saved, err := os.ReadFile(filepath.Join(dir, profileFilename("a")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("a", saved)
	f.Add("a", saved[:len(saved)/2])
	f.Add("b", saved)

	f.Fuzz(func(t *testing.T, key string, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, profileFilename(key)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewProfileStore(4, dir)
		got, ok := s.Get(key)

		var env profileEnvelope
		decErr := gob.NewDecoder(bytes.NewReader(data)).Decode(&env)
		if !ok {
			if decErr != nil && s.DiskErr() == nil {
				t.Fatalf("undecodable profile (%v) missed without a DiskErr", decErr)
			}
			return
		}
		if decErr != nil || env.Key != key {
			t.Fatalf("hit on bytes that decode to key %q (err %v), want key %q", env.Key, decErr, key)
		}
		// Compare encodings, not values: fuzzed features can hold NaNs,
		// which reflect.DeepEqual never equates.
		if !bytes.Equal(gobBytes(t, got), gobBytes(t, env.Profile)) {
			t.Fatal("hit returned a profile other than the one stored under key")
		}
	})
}

func gobBytes(t *testing.T, prof sample.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(prof); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
