package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"tlc/internal/cpu"
	"tlc/internal/workload"
)

// hugeCountHeader is a bare header whose record count (2^40) no real file
// backs; preallocating from it exhausts memory before a record decodes.
func hugeCountHeader() []byte {
	return binary.LittleEndian.AppendUint64([]byte("TLC1"), 1<<40)
}

// reservedBlockTrace is a one-record trace whose memory reference names
// block ^0 (a zigzag delta of -1 from block 0), the block every cache array
// reserves as its empty-way mark.
func reservedBlockTrace() []byte {
	data := binary.LittleEndian.AppendUint64([]byte("TLC1"), 1)
	data = append(data, flagMem)
	return binary.AppendVarint(data, -1)
}

func TestReservedBlockRejected(t *testing.T) {
	_, err := NewReader(bytes.NewReader(reservedBlockTrace()))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("NewReader on a trace naming block ^0: err %v, want ErrBadTrace", err)
	}
}

func TestHugeHeaderCountRejected(t *testing.T) {
	_, err := NewReader(bytes.NewReader(hugeCountHeader()))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("NewReader on a 2^40-record header with no records: err %v, want ErrBadTrace", err)
	}
}

// FuzzTraceReader feeds arbitrary bytes to NewReader. Every input must
// either fail with an error wrapping ErrBadTrace or yield a reader whose
// three delivery paths — Next, NextBatch and NextMems — replay the same
// instruction sequence (wrapping past the end) and leave the same replay
// position.
func FuzzTraceReader(f *testing.F) {
	spec, ok := workload.SpecByName("gcc")
	if !ok {
		f.Fatal("unknown benchmark gcc")
	}
	var ws seekBuffer
	if _, err := Capture(&ws, workload.New(spec, 3), 1_001); err != nil {
		f.Fatal(err)
	}
	f.Add(ws.data)
	f.Add(hugeCountHeader())
	f.Add(reservedBlockTrace())
	f.Fuzz(func(t *testing.T, data []byte) {
		next, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		batched, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second parse of an accepted trace failed: %v", err)
		}
		mems, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("third parse of an accepted trace failed: %v", err)
		}
		// Past the end twice, so every path wraps at least once; odd
		// buffer sizes put the wrap mid-fill.
		total := 2*next.Len() + 3
		want := make([]cpu.Instr, total)
		for i := range want {
			want[i] = next.Next()
		}
		got := make([]cpu.Instr, 0, total)
		buf := make([]cpu.Instr, 7)
		for len(got) < total {
			n := batched.NextBatch(buf[:min(len(buf), total-len(got))])
			got = append(got, buf[:n]...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("NextBatch instr %d: %+v, Next gave %+v", i, got[i], want[i])
			}
		}
		var wantMems []cpu.MemRef
		for _, in := range want {
			if in.IsMem {
				wantMems = append(wantMems, cpu.MemRef{Block: in.Block, Store: in.IsStore})
			}
		}
		var gotMems []cpu.MemRef
		mbuf := make([]cpu.MemRef, 5)
		for left := uint64(total); left > 0; {
			n, consumed := mems.NextMems(mbuf, min(left, 11))
			if consumed == 0 {
				t.Fatal("NextMems made no progress")
			}
			gotMems = append(gotMems, mbuf[:n]...)
			left -= consumed
		}
		if len(gotMems) != len(wantMems) {
			t.Fatalf("NextMems delivered %d memory ops, Next %d", len(gotMems), len(wantMems))
		}
		for i := range wantMems {
			if gotMems[i] != wantMems[i] {
				t.Fatalf("NextMems op %d: %+v, Next gave %+v", i, gotMems[i], wantMems[i])
			}
		}
		if batched.pos != next.pos || mems.pos != next.pos {
			t.Fatalf("replay positions diverged: Next %d, NextBatch %d, NextMems %d", next.pos, batched.pos, mems.pos)
		}
	})
}
