package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tlc/internal/mem"
)

func TestPartialTagNoFalseNegatives(t *testing.T) {
	const sets, banks, assoc = 16, 4, 2
	p := NewPartialTags(sets, banks, assoc)
	b := blk(5, 3, sets)
	p.Install(b, 2, 1)
	match, free := p.Masks(b)
	if match != 1<<2 {
		t.Fatalf("match mask %b, want bank 2 only", match)
	}
	if free != 0b1111 {
		t.Fatalf("free mask %b, want every bank (bank 2 keeps a free way)", free)
	}
}

func TestPartialTagFalsePositive(t *testing.T) {
	const sets = 16
	p := NewPartialTags(sets, 2, 1)
	// Two different blocks, same set, tags differing only above bit 6:
	// partial tags collide.
	a := blk(0x01, 3, sets)
	b := blk(0x41, 3, sets)
	if a.PartialTag(sets) != b.PartialTag(sets) {
		t.Fatal("test blocks should share a partial tag")
	}
	p.Install(a, 0, 0)
	if match, free := p.Masks(b); match != 1 || free != 0b10 {
		t.Fatalf("masks %b/%b, want false-positive match in bank 0 and bank 1 free", match, free)
	}
}

func TestPartialTagClear(t *testing.T) {
	const sets = 16
	p := NewPartialTags(sets, 2, 2)
	b := blk(5, 3, sets)
	p.Install(b, 1, 0)
	p.Clear(b, 1, 0) // the block left bank 1's way 0
	if match, _ := p.Masks(b); match != 0 {
		t.Fatal("cleared entry still matches")
	}
}

func TestPartialTagMatchCount(t *testing.T) {
	const sets = 16
	p := NewPartialTags(sets, 1, 4)
	a := blk(0x05, 3, sets)
	b := blk(0x45, 3, sets) // same partial tag as a
	c := blk(0x06, 3, sets) // different partial tag
	p.Install(a, 0, 0)
	p.Install(b, 0, 1)
	p.Install(c, 0, 2)
	if got := p.MatchCount(a, 0); got != 2 {
		t.Fatalf("MatchCount=%d, want 2 (multi-match)", got)
	}
	if got := p.MatchCount(c, 0); got != 1 {
		t.Fatalf("MatchCount=%d, want 1", got)
	}
}

func TestPartialTagIndexPanics(t *testing.T) {
	p := NewPartialTags(16, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range bank did not panic")
		}
	}()
	p.Install(blk(1, 0, 16), 5, 0)
}

// Property: a partial tag structure that records the way each insert
// fills, as TLCopt's fills do, stays exact and never produces a false
// negative — any resident block is always a candidate in its bank.
func TestQuickPartialTagConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sets, assoc = 8, 2
		bank := NewSetAssoc(sets, assoc)
		p := NewPartialTags(sets, 1, assoc)
		resident := map[mem.Block]bool{}
		for step := 0; step < 200; step++ {
			b := blk(uint64(rng.Intn(64)), rng.Intn(sets), sets)
			idx, victim, ev := bank.InsertAt(b)
			if ev {
				delete(resident, victim)
			}
			resident[b] = true
			p.Install(b, 0, idx%assoc)
			if p.Verify(0, bank) != nil {
				return false
			}
			// No false negatives for any resident block.
			for rb := range resident {
				if match, _ := p.Masks(rb); match != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// naiveMasks is the reference bank-set scan: one entry at a time through
// the exported snapshot layout.
func naiveMasks(st PartialTagsState, b mem.Block) (match, free uint64) {
	set := b.SetIndex(st.Sets)
	pt := b.PartialTag(st.Sets)
	for bank := 0; bank < st.Banks; bank++ {
		for way := 0; way < st.Assoc; way++ {
			i := (set*st.Banks+bank)*st.Assoc + way
			if st.Entry[i] == 0 {
				free |= 1 << bank
			} else if st.Entry[i] == ptagValid|pt {
				match |= 1 << bank
			}
		}
	}
	return match, free
}

// TestMasksMatchesNaiveScan checks the word-parallel scan (DNUCA's 16x2,
// a 64-bank edge, 4- and 8-way folds) and the byte loop (TLCopt's 1x4, odd
// associativities) against a per-entry scan over random installs and
// set clears. Tags are drawn from few values so matches, false positives and
// free ways are all common.
func TestMasksMatchesNaiveScan(t *testing.T) {
	for _, g := range []struct{ sets, banks, assoc int }{
		{8, 16, 2}, {4, 64, 1}, {8, 4, 4}, {4, 8, 8}, {8, 8, 3}, {16, 1, 4}, {8, 12, 3},
	} {
		rng := rand.New(rand.NewSource(int64(g.banks*10 + g.assoc)))
		p := NewPartialTags(g.sets, g.banks, g.assoc)
		block := func() mem.Block { return blk(uint64(rng.Intn(4))|uint64(rng.Intn(2))<<6, rng.Intn(g.sets), g.sets) }
		for step := 0; step < 2000; step++ {
			b, bank, way := block(), rng.Intn(g.banks), rng.Intn(g.assoc)
			if rng.Intn(3) == 0 {
				p.Clear(b, bank, way)
			} else {
				p.Install(b, bank, way)
			}
			probe := block()
			match, free := p.Masks(probe)
			wantMatch, wantFree := naiveMasks(p.Snapshot(), probe)
			if match != wantMatch || free != wantFree {
				t.Fatalf("%+v step %d: masks %b/%b, want %b/%b", g, step, match, free, wantMatch, wantFree)
			}
		}
	}
}

func TestZeroBytes(t *testing.T) {
	for _, c := range []struct{ x, want uint64 }{
		{0, 0xff},
		{0x7f7f7f7f7f7f7f7f, 0},
		{0x0100000000000001, 0b01111110},
		{0x0000007f00000000, 0b11101111},
	} {
		if got := zeroBytes(c.x); got != c.want {
			t.Errorf("zeroBytes(%#x) = %08b, want %08b", c.x, got, c.want)
		}
	}
}

func TestVerifyRejectsInconsistentShadow(t *testing.T) {
	const sets, assoc = 8, 2
	arr := NewSetAssoc(sets, assoc)
	p := NewPartialTags(sets, 2, assoc)
	for i := 0; i < 12; i++ {
		b := blk(uint64(i), i%sets, sets)
		idx, _, _ := arr.InsertAt(b)
		p.Install(b, 1, idx%assoc)
	}
	if err := p.Verify(1, arr); err != nil {
		t.Fatalf("synced shadow rejected: %v", err)
	}
	if err := p.Verify(0, arr); err == nil {
		t.Fatal("empty shadow accepted for a filled array")
	}
	b := blk(3, 3, sets)
	way, _ := arr.WayOf(b)
	p.Install(blk(4, 3, sets), 1, way)
	if err := p.Verify(1, arr); err == nil {
		t.Fatal("shadow with a wrong tag accepted")
	}
	p.Clear(b, 1, way)
	if err := p.Verify(1, arr); err == nil {
		t.Fatal("shadow missing a valid line accepted")
	}
	if err := p.Verify(1, NewSetAssoc(sets, 4)); err == nil {
		t.Fatal("shadow accepted for a differently shaped array")
	}
}

func TestBankTiming(t *testing.T) {
	b := NewBank(16, 4, 8)
	if done := b.Reserve(0); done != 8 {
		t.Fatalf("first access done at %d, want 8", done)
	}
	// Second access at cycle 0 queues behind the first.
	if done := b.Reserve(0); done != 16 {
		t.Fatalf("queued access done at %d, want 16", done)
	}
	// Access after the port frees starts immediately.
	if done := b.Reserve(100); done != 108 {
		t.Fatalf("idle access done at %d, want 108", done)
	}
	if b.Accesses != 3 {
		t.Fatalf("access count %d, want 3", b.Accesses)
	}
	if b.PortBusyCycles() != 24 {
		t.Fatalf("busy cycles %d, want 24", b.PortBusyCycles())
	}
	if b.port.Waits() != 1 {
		t.Fatalf("port waits %d, want 1", b.port.Waits())
	}
}

func TestBankSizeAndString(t *testing.T) {
	// 512 KB bank: 2048 sets x 4 ways x 64 B.
	b := NewBank(2048, 4, 8)
	if b.SizeBytes() != 512*1024 {
		t.Fatalf("bank size %d, want 512KB", b.SizeBytes())
	}
	if b.String() != "bank{512KB 4-way 8cyc}" {
		t.Fatalf("bank string %q", b.String())
	}
}

func TestBankZeroLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero access time did not panic")
		}
	}()
	NewBank(16, 2, 0)
}
