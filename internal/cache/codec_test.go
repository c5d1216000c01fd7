package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"tlc/internal/mem"
)

// codecStates returns a churned array's state and a filled shadow's state,
// each with occupied and empty entries.
func codecStates() (SetAssocState, PartialTagsState) {
	rng := rand.New(rand.NewSource(5))
	c := NewSetAssoc(16, 4)
	churn(c, rng, 300)
	p := NewPartialTags(8, 2, 4)
	for i := 0; i < 40; i++ {
		p.Install(mem.Block(rng.Intn(1<<12)), rng.Intn(2), rng.Intn(4))
	}
	return c.Snapshot(), p.Snapshot()
}

func TestStateCodecRoundTrip(t *testing.T) {
	sa, pt := codecStates()
	data, err := sa.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8+9*len(sa.Lines) {
		t.Fatalf("array state encodes to %d bytes, want %d", len(data), 8+9*len(sa.Lines))
	}
	var sa2 SetAssocState
	if err := sa2.UnmarshalBinary(data); err != nil || !reflect.DeepEqual(sa2, sa) {
		t.Fatalf("array state round trip: %v, equal %v", err, reflect.DeepEqual(sa2, sa))
	}
	data, err = pt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pt2 PartialTagsState
	if err := pt2.UnmarshalBinary(data); err != nil || !reflect.DeepEqual(pt2, pt) {
		t.Fatalf("partial-tag state round trip: %v, equal %v", err, reflect.DeepEqual(pt2, pt))
	}

	// Gob writes both through their binary forms, nested in slices as the
	// design states nest them, and the decoded states restore.
	type envelope struct {
		Arrays [][]SetAssocState
		PTags  []PartialTagsState
	}
	var buf bytes.Buffer
	in := envelope{Arrays: [][]SetAssocState{{sa, sa}}, PTags: []PartialTagsState{pt}}
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("gob round trip: %v, equal %v", err, reflect.DeepEqual(out, in))
	}
	if err := NewSetAssoc(16, 4).Restore(out.Arrays[0][1]); err != nil {
		t.Fatal(err)
	}
	if err := NewPartialTags(8, 2, 4).Restore(out.PTags[0]); err != nil {
		t.Fatal(err)
	}
}

// TestStateCodecRejectsMismatchedShapes pins both directions of the length
// rule: a state whose arrays disagree with its geometry does not encode,
// and an encoding whose length disagrees with its header does not decode.
func TestStateCodecRejectsMismatchedShapes(t *testing.T) {
	sa, pt := codecStates()
	short := sa
	short.LRU = sa.LRU[1:]
	if _, err := short.MarshalBinary(); err == nil {
		t.Error("encoded an array state with a short rank array")
	}
	huge := sa
	huge.Sets = 1 << 40
	if _, err := huge.MarshalBinary(); err == nil {
		t.Error("encoded an array state whose set count overflows its field")
	}
	shortPT := pt
	shortPT.Entry = pt.Entry[1:]
	if _, err := shortPT.MarshalBinary(); err == nil {
		t.Error("encoded a partial-tag state with a short entry array")
	}

	good, _ := sa.MarshalBinary()
	goodPT, _ := pt.MarshalBinary()
	for name, data := range map[string][]byte{
		"array, truncated":        good[:len(good)-1],
		"array, extended":         append(append([]byte(nil), good...), 0),
		"array, one line short":   good[:len(good)-9],
		"array, empty":            nil,
		"partial tags, truncated": goodPT[:len(goodPT)-1],
		"partial tags, extended":  append(append([]byte(nil), goodPT...), 0),
		"partial tags, empty":     nil,
	} {
		var err error
		if name[0] == 'a' {
			err = new(SetAssocState).UnmarshalBinary(data)
		} else {
			err = new(PartialTagsState).UnmarshalBinary(data)
		}
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestStateCodecForgedLengthAllocatesNothing decodes headers that claim
// the largest geometries over a few bytes of data: each must fail before
// it allocates.
func TestStateCodecForgedLengthAllocatesNothing(t *testing.T) {
	forged := make([]byte, 12+9)
	binary.LittleEndian.PutUint32(forged, 1<<31)
	binary.LittleEndian.PutUint32(forged[4:], 255)
	binary.LittleEndian.PutUint32(forged[8:], 1<<31)
	var sa SetAssocState
	var pt PartialTagsState
	allocs := testing.AllocsPerRun(20, func() {
		if sa.UnmarshalBinary(forged[:8+9]) == nil || pt.UnmarshalBinary(forged) == nil {
			t.Fatal("decoded a forged header")
		}
	})
	if allocs != 0 {
		t.Errorf("a forged header cost %.0f allocations, want 0", allocs)
	}
}

// FuzzStateCodec decodes arbitrary bytes as both state types. Each decode
// either fails or gives a state that re-encodes to the input's bytes, and
// a decoded state holds no more than the input's length in array bytes,
// so a forged header cannot make the decoder allocate beyond its input.
func FuzzStateCodec(f *testing.F) {
	sa, pt := codecStates()
	for _, st := range []interface{ MarshalBinary() ([]byte, error) }{sa, pt, SetAssocState{}, PartialTagsState{}} {
		data, err := st.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sa SetAssocState
		if sa.UnmarshalBinary(data) == nil {
			if n := 8*cap(sa.Lines) + cap(sa.LRU); n > len(data) {
				t.Fatalf("decoded %d array bytes from %d input bytes", n, len(data))
			}
			again, err := sa.MarshalBinary()
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("array state re-encodes to %x (%v), not %x", again, err, data)
			}
		}
		var pt PartialTagsState
		if pt.UnmarshalBinary(data) == nil {
			if n := cap(pt.Entry); n > len(data) {
				t.Fatalf("decoded %d entry bytes from %d input bytes", n, len(data))
			}
			again, err := pt.MarshalBinary()
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("partial-tag state re-encodes to %x (%v), not %x", again, err, data)
			}
		}
	})
}
