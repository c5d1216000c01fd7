package snapshot

import (
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// gated is a value whose gob encoding and decoding each wait for a signal:
// it holds a cache's disk I/O open at a known point.
type gated struct {
	entered, release chan struct{}
}

func (g gated) GobEncode() ([]byte, error) {
	if g.entered != nil {
		close(g.entered)
		<-g.release
	}
	return []byte{1}, nil
}

// decodeGate, when set, makes every gated decode signal and wait.
var decodeGate gated

func (g *gated) GobDecode([]byte) error {
	if decodeGate.entered != nil {
		close(decodeGate.entered)
		<-decodeGate.release
	}
	return nil
}

// TestCacheDiskIOOutsideLock holds one key's disk write, then one key's
// disk read, open mid-gob and requires a lookup of another key to finish
// meanwhile: a slow encode or decode must not stall the rest of the cache.
func TestCacheDiskIOOutsideLock(t *testing.T) {
	c := NewCache[string, gated](2, t.TempDir(), func(k string) string { return k })
	c.Put("warm", gated{})
	lookupDuring := func(t *testing.T, g gated, slow func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			slow()
		}()
		<-g.entered
		got := make(chan bool)
		go func() {
			_, ok := c.Get("warm")
			got <- ok
		}()
		select {
		case ok := <-got:
			if !ok {
				t.Error("resident key missed while another key's disk I/O ran")
			}
		case <-time.After(10 * time.Second):
			t.Error("a lookup waited for another key's disk I/O")
		}
		close(g.release)
		<-done
	}
	t.Run("write", func(t *testing.T) {
		g := gated{entered: make(chan struct{}), release: make(chan struct{})}
		lookupDuring(t, g, func() { c.Put("slow", g) })
	})
	// Two more puts evict "slow" from memory, so the next Get of it
	// decodes its file.
	c.Put("other", gated{})
	c.Put("warm", gated{})
	t.Run("read", func(t *testing.T) {
		decodeGate = gated{entered: make(chan struct{}), release: make(chan struct{})}
		defer func() { decodeGate = gated{} }()
		lookupDuring(t, decodeGate, func() {
			if _, ok := c.Get("slow"); !ok {
				t.Error("the slow key's disk record missed")
			}
		})
	})
}
