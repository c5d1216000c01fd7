package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tlc/internal/mem"
	"tlc/internal/sim"
)

func TestRowHitFasterThanMiss(t *testing.T) {
	m := New(Default())
	b := mem.Block(0x1234)
	first := m.Fetch(0, b) // closed bank: activate + CAS
	// Re-fetch the same block later (within the refresh interval, so the
	// row is still open).
	second := m.Fetch(10000, b) - 10000
	if second >= first {
		t.Fatalf("open-row access (%d) not faster than activate (%d)", second, first)
	}
	if m.RowHits != 1 || m.RowMisses != 1 {
		t.Fatalf("outcome counts hits=%d misses=%d, want 1/1", m.RowHits, m.RowMisses)
	}
}

func TestRowConflictSlowest(t *testing.T) {
	m := New(Default())
	a := mem.Block(0)
	// A block in the same bank but a different row: same low bits, far
	// apart. Find one by search.
	chA, bkA, rowA := m.route(a)
	var b mem.Block
	for cand := mem.Block(1); ; cand++ {
		ch, bk, row := m.route(cand)
		if ch == chA && bk == bkA && row != rowA {
			b = cand
			break
		}
	}
	m.Fetch(0, a)
	conflict := m.Fetch(10000, b) - 10000
	m2 := New(Default())
	miss := m2.Fetch(0, b)
	if conflict <= miss {
		t.Fatalf("row conflict (%d) should exceed a plain activate (%d)", conflict, miss)
	}
	if m.RowConflicts != 1 {
		t.Fatalf("conflicts %d, want 1", m.RowConflicts)
	}
}

func TestMeanNearTable3At50PctHits(t *testing.T) {
	// The default config targets the paper's 300-cycle mean at a typical
	// open-page mix: alternate hits and activates and check the average.
	m := New(Default())
	var total sim.Time
	const n = 1000
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		b := mem.Block(i / 2 * 7) // pairs: second access hits the row
		done := m.Fetch(at, b)
		total += done - at
		at = done + 1000 // idle: no queueing
	}
	mean := float64(total) / n
	if mean < 240 || mean > 360 {
		t.Fatalf("idle-load mean %0.f cycles, want near the Table 3 300", mean)
	}
}

func TestBankQueueing(t *testing.T) {
	m := New(Default())
	b := mem.Block(42)
	_, bk, _ := m.route(b)
	_ = bk
	first := m.Fetch(0, b)
	// A simultaneous access to the same bank queues.
	var sameBank mem.Block
	chA, bkA, _ := m.route(b)
	for cand := mem.Block(1); ; cand++ {
		if ch, bk, _ := m.route(cand); ch == chA && bk == bkA && cand != b {
			sameBank = cand
			break
		}
	}
	second := m.Fetch(0, sameBank)
	if second <= first {
		t.Fatal("same-bank simultaneous accesses should serialize")
	}
}

func TestChannelParallelism(t *testing.T) {
	m := New(Default())
	// Accesses to different channels at the same instant should not
	// serialize on each other.
	var a, b mem.Block
	chA, _, _ := m.route(0)
	a = 0
	for cand := mem.Block(1); ; cand++ {
		if ch, _, _ := m.route(cand); ch != chA {
			b = cand
			break
		}
	}
	t1 := m.Fetch(0, a)
	t2 := m.Fetch(0, b)
	if t2-0 > t1+Default().Burst {
		t.Fatalf("cross-channel access serialized: %d vs %d", t2, t1)
	}
}

func TestSequentialStreamEnjoysOpenRows(t *testing.T) {
	m := New(Default())
	at := sim.Time(0)
	for i := 0; i < 4096; i++ {
		done := m.Fetch(at, mem.Block(i))
		at = done + 50
	}
	if m.RowHitRate() < 0.5 {
		t.Fatalf("sequential stream row-hit rate %.2f, want high open-page locality", m.RowHitRate())
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := Default()
	bad.Channels = 3
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two geometry accepted")
		}
	}()
	New(bad)
}

// Property: completion is always after arrival plus the frontend, and
// repeated fetches never complete earlier than a prior fetch issued at the
// same or later time to the same bank.
func TestQuickFetchSane(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(Default())
		at := sim.Time(0)
		for i := 0; i < 100; i++ {
			b := mem.Block(rng.Intn(1 << 20))
			done := m.Fetch(at, b)
			if done < at+Default().Frontend {
				return false
			}
			at += sim.Time(rng.Intn(200))
		}
		return m.Accesses == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRefreshBlocksTheBank(t *testing.T) {
	cfg := Default()
	cfg.RefreshInterval = 1000
	cfg.RefreshTime = 400
	m := New(cfg)
	b := mem.Block(7)
	m.Fetch(0, b) // opens the row, books refreshes through the lookahead
	if m.Refreshes == 0 {
		t.Fatal("no refresh windows booked")
	}
	// An access arriving inside a refresh window queues behind it: ask
	// right at the first refresh start.
	before := m.Fetch(900, b) - 900
	inside := m.Fetch(1050, b) - 1050
	if inside <= before {
		t.Fatalf("access during refresh (%d) should exceed one before it (%d)", inside, before)
	}
}

func TestRefreshClosesOpenRow(t *testing.T) {
	cfg := Default()
	cfg.RefreshInterval = 500
	cfg.RefreshTime = 100
	m := New(cfg)
	b := mem.Block(3)
	m.Fetch(0, b)
	// After several refresh intervals the row is closed again.
	m.Fetch(5000, b)
	if m.RowHits != 0 {
		t.Fatal("row survived refresh")
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := Default()
	cfg.RefreshInterval = 0
	m := New(cfg)
	m.Fetch(0, mem.Block(1))
	m.Fetch(1e6, mem.Block(1))
	if m.Refreshes != 0 {
		t.Fatal("refresh booked while disabled")
	}
	if m.RowHits != 1 {
		t.Fatal("row should survive forever without refresh")
	}
}

func TestSingleChannelAndBank(t *testing.T) {
	// One channel and one bank are powers of two, so New accepts them;
	// routing then hashes with zero-width fields and must select channel
	// and bank 0 rather than hang.
	cfg := Default()
	cfg.Channels = 1
	cfg.BanksPerChannel = 1
	m := New(cfg)
	first := m.Fetch(0, mem.Block(0x1234))
	if first == 0 {
		t.Fatal("fetch completed at cycle 0")
	}
	for b := mem.Block(0); b < 64; b++ {
		if ch, bk, _ := m.route(b); ch != 0 || bk != 0 {
			t.Fatalf("block %d routed to channel %d bank %d", b, ch, bk)
		}
	}
	m.Fetch(10000, mem.Block(0x1235))
	if m.Accesses != 2 {
		t.Fatalf("accesses %d, want 2", m.Accesses)
	}
}
