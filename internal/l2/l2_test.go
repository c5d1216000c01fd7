package l2

import (
	"testing"
	"testing/quick"

	"tlc/internal/mem"
	"tlc/internal/sim"
)

func TestStatsRecordLoad(t *testing.T) {
	s := NewStats()
	s.RecordLoad(13, true, true, 1)
	s.RecordLoad(25, false, false, 2)
	if s.Loads.Value() != 2 || s.Hits.Value() != 1 || s.Misses.Value() != 1 {
		t.Fatal("load accounting wrong")
	}
	if s.PredictableLookups.Value() != 1 {
		t.Fatal("predictable accounting wrong")
	}
	if s.BanksTouched.Value() != 3 {
		t.Fatal("bank accounting wrong")
	}
	if s.Lookup.Count() != 2 || s.Lookup.Mean() != 19 {
		t.Fatal("lookup histogram wrong")
	}
}

func TestStatsRecordStore(t *testing.T) {
	s := NewStats()
	s.RecordStore(true, 1)
	s.RecordStore(false, 8)
	if s.Stores.Value() != 2 {
		t.Fatal("store count wrong")
	}
	if s.Hits.Value() != 1 || s.Misses.Value() != 1 {
		t.Fatal("store hit/miss accounting wrong")
	}
	if s.BanksTouched.Value() != 9 {
		t.Fatal("store bank accounting wrong")
	}
	if s.Lookup.Count() != 0 {
		t.Fatal("stores must not enter the lookup-latency histogram")
	}
}

func TestDerivedMetrics(t *testing.T) {
	s := NewStats()
	for i := 0; i < 8; i++ {
		s.RecordLoad(13, true, true, 1)
	}
	s.RecordLoad(40, false, false, 1)
	s.RecordLoad(40, false, false, 1)
	s.RecordStore(true, 1)
	if got := s.MissesPer1K(1000); got != 2 {
		t.Fatalf("misses/1K %v, want 2", got)
	}
	if got := s.PredictablePct(); got != 80 {
		t.Fatalf("predictable %v%%, want 80", got)
	}
	if got := s.BanksPerRequest(); got != 1 {
		t.Fatalf("banks/request %v, want 1", got)
	}
}

func TestEmptyStats(t *testing.T) {
	s := NewStats()
	if s.MissesPer1K(0) != 0 || s.PredictablePct() != 0 || s.BanksPerRequest() != 0 {
		t.Fatal("empty stats should report zeros, not NaN")
	}
}

func TestMemLatencyJitterProperties(t *testing.T) {
	// Jitter stays within +/-16 of the base and is deterministic.
	for b := mem.Block(0); b < 10000; b++ {
		l := MemLatency(300, b)
		if l < 284 || l > 316 {
			t.Fatalf("block %d latency %d outside 300+/-16", b, l)
		}
		if l != MemLatency(300, b) {
			t.Fatal("jitter not deterministic")
		}
	}
}

func TestMemLatencyJitterMeanAndSpread(t *testing.T) {
	var sum, n uint64
	distinct := map[sim.Time]bool{}
	for b := mem.Block(0); b < 100000; b++ {
		l := MemLatency(300, b)
		sum += uint64(l)
		n++
		distinct[l] = true
	}
	mean := float64(sum) / float64(n)
	if mean < 298 || mean > 302 {
		t.Fatalf("jitter mean %.1f drifted from 300", mean)
	}
	if len(distinct) < 16 {
		t.Fatalf("only %d distinct latencies: jitter not spreading", len(distinct))
	}
}

// Property: MemLatency is monotone in the base and never differs from it
// by more than 16.
func TestQuickMemLatency(t *testing.T) {
	f := func(raw uint32, base uint16) bool {
		bl := sim.Time(base) + 100
		l := MemLatency(bl, mem.Block(raw))
		d := int64(l) - int64(bl)
		return d >= -16 && d <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
