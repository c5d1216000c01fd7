package metrics

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"tlc/internal/sim"
	"tlc/internal/stats"
)

func TestCounterReads(t *testing.T) {
	r := New()
	var c stats.Counter
	var raw uint64
	r.Counter("l2.hits", &c)
	r.CounterFunc("l2.misses", func() uint64 { return raw })

	if got := r.CounterValue("l2.hits"); got != 0 {
		t.Fatalf("fresh counter reads %d, want 0", got)
	}
	c.Add(3)
	raw = 7
	if got := r.CounterValue("l2.hits"); got != 3 {
		t.Errorf("l2.hits = %d, want 3 (registry must read the live counter)", got)
	}
	if got := r.CounterValue("l2.misses"); got != 7 {
		t.Errorf("l2.misses = %d, want 7", got)
	}
	if got := r.CounterValue("no.such.name"); got != 0 {
		t.Errorf("absent counter reads %d, want 0", got)
	}
}

func TestGaugeReceivesClock(t *testing.T) {
	r := New()
	r.Gauge("power.network_w", func(now sim.Time) float64 { return float64(now) * 0.5 })
	if got := r.GaugeValue("power.network_w", 10); got != 5 {
		t.Errorf("gauge at clock 10 = %v, want 5", got)
	}
	if got := r.GaugeValue("absent", 10); got != 0 {
		t.Errorf("absent gauge reads %v, want 0", got)
	}
}

func TestHistogramMean(t *testing.T) {
	r := New()
	h := stats.NewHistogram(16)
	r.Histogram("l2.lookup", h)
	h.Observe(10)
	h.Observe(20)
	if got := r.HistogramMean("l2.lookup"); got != 15 {
		t.Errorf("histogram mean = %v, want 15", got)
	}
	if got := r.HistogramMean("absent"); got != 0 {
		t.Errorf("absent histogram mean = %v, want 0", got)
	}
}

func TestDuplicateAndEmptyNamesPanic(t *testing.T) {
	cases := []struct {
		name string
		reg  func(r *Registry)
	}{
		{"empty", func(r *Registry) { r.CounterFunc("", func() uint64 { return 0 }) }},
		{"dup counter", func(r *Registry) { r.CounterFunc("x", func() uint64 { return 0 }) }},
		{"dup across kinds (gauge)", func(r *Registry) { r.Gauge("x", func(sim.Time) float64 { return 0 }) }},
		{"dup across kinds (histogram)", func(r *Registry) { r.Histogram("x", stats.NewHistogram(4)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New()
			r.CounterFunc("x", func() uint64 { return 0 })
			defer func() {
				if recover() == nil {
					t.Error("registration did not panic")
				}
			}()
			tc.reg(r)
		})
	}
}

func TestResourceRegistersAggregates(t *testing.T) {
	r := New()
	var res sim.Resource
	r.Resource("dram.bus0", &res)
	res.Reserve(0, 4)
	res.Reserve(2, 4) // waits 2 cycles behind the first reservation

	if got := r.CounterValue("dram.bus0.busy_cycles"); got != 8 {
		t.Errorf("busy_cycles = %d, want 8", got)
	}
	if got := r.CounterValue("dram.bus0.reservations"); got != 2 {
		t.Errorf("reservations = %d, want 2", got)
	}
	if got := r.CounterValue("dram.bus0.waits"); got != 1 {
		t.Errorf("waits = %d, want 1", got)
	}
	if got := r.CounterValue("dram.bus0.wait_cycles"); got != 2 {
		t.Errorf("wait_cycles = %d, want 2", got)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := New()
	var c stats.Counter
	c.Add(5)
	r.Counter("b.counter", &c)
	r.Gauge("a.gauge", func(now sim.Time) float64 { return 2.5 })
	h := stats.NewHistogram(8)
	h.Observe(1)
	h.Observe(3)
	r.Histogram("c.hist", h)

	s := r.Snapshot(100)
	if len(s) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(s))
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Name < s[j].Name }) {
		t.Error("snapshot not sorted by name")
	}
	if v, ok := s.Value("b.counter"); !ok || v != 5 {
		t.Errorf("Value(b.counter) = %v, %v; want 5, true", v, ok)
	}
	if v, ok := s.Value("a.gauge"); !ok || v != 2.5 {
		t.Errorf("Value(a.gauge) = %v, %v; want 2.5, true", v, ok)
	}
	if v, ok := s.Value("c.hist"); !ok || v != 2 {
		t.Errorf("Value(c.hist) = %v, %v; want mean 2, true", v, ok)
	}
	if _, ok := s.Value("zzz"); ok {
		t.Error("Value found a metric that was never registered")
	}

	// The snapshot must not track later counter movement.
	c.Add(100)
	if v, _ := s.Value("b.counter"); v != 5 {
		t.Errorf("snapshot tracked a live counter: %v", v)
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := New()
	var c stats.Counter
	c.Add(9)
	r.Counter("l2.loads", &c)
	var buf bytes.Buffer
	if err := r.Snapshot(0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Value("l2.loads"); !ok || v != 9 {
		t.Errorf("round-tripped Value = %v, %v; want 9, true", v, ok)
	}
}

func TestAppendCounterValues(t *testing.T) {
	r := New()
	var a, b stats.Counter
	a.Add(1)
	b.Add(2)
	r.Counter("a", &a)
	r.Counter("b", &b)
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("CounterNames = %v, want [a b]", names)
	}
	got := r.AppendCounterValues(nil, append(names, "absent"))
	want := []uint64{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendCounterValues = %v, want %v", got, want)
		}
	}
}

// TestBulkReadDoesNotAllocate pins the sampled-mode interval read: with a
// pre-sized destination, reading every counter allocates nothing, so
// per-interval registry snapshots cannot disturb the allocation-free hot
// path they interleave with.
func TestBulkReadDoesNotAllocate(t *testing.T) {
	r := New()
	var cs [16]stats.Counter
	for i := range cs {
		r.Counter(string(rune('a'+i)), &cs[i])
	}
	names := r.CounterNames()
	buf := make([]uint64, 0, len(names))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = r.AppendCounterValues(buf[:0], names)
	}); allocs != 0 {
		t.Errorf("AppendCounterValues allocates %.2f per bulk read, want 0", allocs)
	}
}
