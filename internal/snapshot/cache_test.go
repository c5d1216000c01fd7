package snapshot

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tlc/internal/sample"
)

// envelope and profileEnvelope are the disk layouts the checkpoint and
// profile stores wrote before both became a Cache: the value rode in a
// field named after its kind rather than in Value.
type envelope struct {
	Key        Key
	Checkpoint Checkpoint
}

type profileEnvelope struct {
	Key     string
	Profile sample.Profile
}

// failsClosed checks the disk tier's three foreign-file cases for one kind
// of cache. Each writes a file under k's name and reads it through a fresh
// cache over the directory: a file in the old layout (old) and a record
// stored under another key are plain misses, a truncated record is a miss
// with DiskErr set, and in every case the next Put replaces the file.
func failsClosed[K comparable, V any](t *testing.T, open func(dir string) *Cache[K, V], k, other K, v V, old any) {
	t.Helper()
	write := func(t *testing.T, dir string, data any) string {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, open(dir).name(k))
		f, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := gob.NewEncoder(f).Encode(data); err != nil {
			t.Fatal(err)
		}
		return name
	}
	cases := []struct {
		name    string
		file    func(t *testing.T, dir string)
		diskErr bool
	}{
		{"old layout", func(t *testing.T, dir string) { write(t, dir, old) }, false},
		{"other key", func(t *testing.T, dir string) { write(t, dir, record[K, V]{Key: other, Value: &v}) }, false},
		{"truncated", func(t *testing.T, dir string) {
			name := write(t, dir, record[K, V]{Key: k, Value: &v})
			if err := os.Truncate(name, 16); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.file(t, dir)
			c := open(dir)
			if _, ok := c.Get(k); ok {
				t.Fatal("foreign file served as a hit")
			}
			if st := c.Stats(); st.Misses != 1 || st.DiskHits != 0 {
				t.Fatalf("stats %+v, want one miss", st)
			}
			if got := c.DiskErr() != nil; got != tc.diskErr {
				t.Fatalf("DiskErr set = %v, want %v (%v)", got, tc.diskErr, c.DiskErr())
			}
			c.Put(k, v)
			got, ok := open(dir).Get(k)
			if !ok || !reflect.DeepEqual(got, v) {
				t.Fatal("Put did not replace the foreign file")
			}
		})
	}
}

func TestStoreDiskFailsClosed(t *testing.T) {
	ckp := fixture(t, 5)
	failsClosed(t, func(dir string) *Store { return NewStore(4, dir) },
		key(1), key(2), ckp, envelope{Key: key(1), Checkpoint: ckp})
}

func TestProfileStoreDiskFailsClosed(t *testing.T) {
	prof := testProfile("a", 3)
	failsClosed(t, func(dir string) *ProfileStore { return NewProfileStore(4, dir) },
		"a", "b", prof, profileEnvelope{Key: "a", Profile: prof})
}
