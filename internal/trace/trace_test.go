package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"tlc/internal/cpu"
	"tlc/internal/mem"
	"tlc/internal/workload"
)

// tempTrace writes instrs to a temp file and returns its path.
func tempTrace(t *testing.T, instrs []cpu.Instr) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range instrs {
		w.Add(in)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func readTrace(t *testing.T, path string) *Reader {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	instrs := []cpu.Instr{
		{},
		{IsMem: true, Block: 100},
		{IsMem: true, IsStore: true, Block: 50},
		{Dep: true},
		{Mispredict: true},
		{IsMem: true, Dep: true, Block: 1 << 30},
	}
	r := readTrace(t, tempTrace(t, instrs))
	if r.Len() != len(instrs) {
		t.Fatalf("trace length %d, want %d", r.Len(), len(instrs))
	}
	for i, want := range instrs {
		if got := r.Next(); got != want {
			t.Fatalf("record %d: %+v, want %+v", i, got, want)
		}
	}
}

func TestReplayWrapsAround(t *testing.T) {
	r := readTrace(t, tempTrace(t, []cpu.Instr{{IsMem: true, Block: 1}, {IsMem: true, Block: 2}}))
	seq := []mem.Block{r.Next().Block, r.Next().Block, r.Next().Block, r.Next().Block}
	want := []mem.Block{1, 2, 1, 2}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("wrapped replay %v, want %v", seq, want)
		}
	}
}

func TestCaptureFromWorkload(t *testing.T) {
	spec, _ := workload.SpecByName("gcc")
	gen := workload.New(spec, 1)
	path := filepath.Join(t.TempDir(), "gcc.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Capture(f, gen, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if n != 50_000 {
		t.Fatalf("captured %d, want 50000", n)
	}
	// The replayed trace must reproduce the generator exactly.
	r := readTrace(t, path)
	gen2 := workload.New(spec, 1)
	for i := 0; i < 50_000; i++ {
		if r.Next() != gen2.Next() {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestCompactness(t *testing.T) {
	// A streaming trace should encode near one byte per record plus two
	// per memory op (flags + small delta).
	spec := workload.Spec{Name: "s", FootprintMB: 64, StreamFrac: 1, MemFrac: 0.5}
	gen := workload.New(spec, 1)
	path := filepath.Join(t.TempDir(), "s.trace")
	f, _ := os.Create(path)
	Capture(f, gen, 100_000)
	f.Close()
	fi, _ := os.Stat(path)
	perRecord := float64(fi.Size()) / 100_000
	if perRecord > 2.5 {
		t.Fatalf("%.2f bytes/record, want < 2.5 for a streaming trace", perRecord)
	}
}

func TestSummarize(t *testing.T) {
	r := readTrace(t, tempTrace(t, []cpu.Instr{
		{IsMem: true, Block: 1},
		{IsMem: true, Block: 1},
		{IsMem: true, IsStore: true, Block: 2},
		{IsMem: true, Dep: true, Block: 3},
		{Mispredict: true},
		{},
	}))
	s := r.Summarize()
	if s.Instructions != 6 || s.MemOps != 4 || s.Stores != 1 || s.DepLoads != 1 ||
		s.Mispredicts != 1 || s.UniqueBlocks != 3 {
		t.Fatalf("summary %+v wrong", s)
	}
}

func TestMalformedTraces(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXX\x00\x00\x00\x00\x00\x00\x00\x00"),
		"truncated": append([]byte("TLC1"), 5, 0, 0, 0, 0, 0, 0, 0),
		"zero":      append([]byte("TLC1"), 0, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s trace accepted", name)
		}
	}
}

func TestUnknownFlagsRejected(t *testing.T) {
	data := append([]byte("TLC1"), 1, 0, 0, 0, 0, 0, 0, 0, 0x80)
	if _, err := NewReader(bytes.NewReader(data)); err == nil {
		t.Error("unknown flag bits accepted")
	}
}

// Property: arbitrary instruction sequences survive a round trip.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32, flags []uint8) bool {
		n := len(raw)
		if len(flags) < n {
			n = len(flags)
		}
		if n == 0 {
			return true
		}
		instrs := make([]cpu.Instr, n)
		for i := 0; i < n; i++ {
			instrs[i] = cpu.Instr{
				IsMem:      flags[i]&1 != 0,
				IsStore:    flags[i]&2 != 0,
				Dep:        flags[i]&4 != 0,
				Mispredict: flags[i]&8 != 0,
			}
			if instrs[i].IsMem {
				instrs[i].Block = mem.Block(raw[i])
			}
		}
		var buf seekBuffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, in := range instrs {
			w.Add(in)
		}
		if w.Close() != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.data))
		if err != nil {
			return false
		}
		for _, want := range instrs {
			if r.Next() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// seekBuffer is an in-memory io.WriteSeeker.
type seekBuffer struct {
	data []byte
	pos  int
}

func (b *seekBuffer) Write(p []byte) (int, error) {
	if need := b.pos + len(p); need > len(b.data) {
		b.data = append(b.data, make([]byte, need-len(b.data))...)
	}
	copy(b.data[b.pos:], p)
	b.pos += len(p)
	return len(p), nil
}

func (b *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		b.pos = int(offset)
	case io.SeekCurrent:
		b.pos += int(offset)
	case io.SeekEnd:
		b.pos = len(b.data) + int(offset)
	}
	return int64(b.pos), nil
}
