package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("new engine at cycle %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	for i, at := range want {
		if order[i] != at {
			t.Fatalf("fire order %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %d after run, want 30", e.Now())
	}
}

func TestSameCycleEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-cycle order %v not FIFO", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var fired Time
	e.At(10, func() {
		e.After(5, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 15 {
		t.Fatalf("After(5) from cycle 10 fired at %d, want 15", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := New()
	fired := map[Time]bool{}
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired[at] = true })
	}
	e.RunUntil(12)
	if !fired[5] || !fired[10] {
		t.Fatal("events at or before the limit did not fire")
	}
	if fired[15] || fired[20] {
		t.Fatal("events after the limit fired")
	}
	if e.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", e.Pending())
	}
	if e.Now() != 12 {
		t.Fatalf("clock at %d, want advanced to limit 12", e.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("%d pending after Stop, want 7", e.Pending())
	}
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	e.At(42, func() {})
	at, ok := e.NextEventTime()
	if !ok || at != 42 {
		t.Fatalf("next event (%d,%v), want (42,true)", at, ok)
	}
}

func TestAdvanceTo(t *testing.T) {
	e := New()
	e.AdvanceTo(100)
	if e.Now() != 100 {
		t.Fatalf("clock at %d, want 100", e.Now())
	}
	e.At(150, func() {})
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo past a pending event did not panic")
		}
	}()
	e.AdvanceTo(200)
}

func TestAdvanceToPastPanics(t *testing.T) {
	e := New()
	e.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo into the past did not panic")
		}
	}()
	e.AdvanceTo(5)
}

// Property: for any random schedule, events fire in nondecreasing time order
// and the engine visits exactly the scheduled set.
func TestQuickEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]Time, len(times))
		for i, raw := range times {
			want[i] = Time(raw)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEngineSchedulingDoesNotAllocate pins the typed min-heap's allocation
// behaviour: once the queue's backing array has grown to its steady-state
// size, At and Step must not allocate (container/heap boxed one item per
// Push/Pop through its interface{} methods).
func TestEngineSchedulingDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	// Grow the queue to steady-state capacity.
	for i := 0; i < 64; i++ {
		e.At(e.Now()+Time(i)+1, fn)
	}
	for e.Step() {
	}
	if allocs := testing.AllocsPerRun(200, func() {
		now := e.Now()
		for i := 0; i < 32; i++ {
			e.At(now+Time(i)+1, fn)
		}
		for e.Step() {
		}
	}); allocs != 0 {
		t.Fatalf("At/Step allocated %.1f times per schedule-and-drain cycle, want 0", allocs)
	}
}

// TestEngineStepReleasesCallback verifies pop clears the vacated tail slot:
// a drained queue must not pin the last event's closure in its backing array.
func TestEngineStepReleasesCallback(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.Step()
	q := e.queue[:cap(e.queue)]
	for i := range q {
		if q[i].fn != nil {
			t.Fatal("drained queue still references an event callback")
		}
	}
}

func TestResourceBackToBackReservations(t *testing.T) {
	var r Resource
	if got := r.Reserve(0, 4); got != 0 {
		t.Fatalf("first reservation starts at %d, want 0", got)
	}
	if got := r.Reserve(0, 4); got != 4 {
		t.Fatalf("second reservation starts at %d, want 4", got)
	}
	if got := r.Reserve(10, 4); got != 10 {
		t.Fatalf("reservation after idle gap starts at %d, want 10", got)
	}
	if r.BusyCycles() != 12 {
		t.Fatalf("busy cycles %d, want 12", r.BusyCycles())
	}
	if r.Waits() != 1 {
		t.Fatalf("waits %d, want 1", r.Waits())
	}
	if r.WaitCycles() != 4 {
		t.Fatalf("wait cycles %d, want 4", r.WaitCycles())
	}
}

func TestResourceReset(t *testing.T) {
	var r Resource
	r.Reserve(5, 10)
	r.Reset()
	if r.BusyCycles() != 0 || r.Reservations() != 0 {
		t.Fatal("Reset did not clear resource state")
	}
	if start := r.Reserve(5, 1); start != 5 {
		t.Fatalf("a reservation after Reset starts at %d, want 5: the old booking survived", start)
	}
}

// Property: a resource never overlaps reservations, service never starts
// before the request arrives, and busy time equals the sum of durations.
func TestQuickResourceNoOverlap(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Resource
		var at Time
		var lastEnd Time
		var sum Time
		for i := 0; i < int(n%40)+1; i++ {
			at += Time(rng.Intn(8))
			dur := Time(rng.Intn(6) + 1)
			start := r.Reserve(at, dur)
			if start < at || start < lastEnd {
				return false
			}
			lastEnd = start + dur
			sum += dur
		}
		return r.BusyCycles() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResourceGapFilling(t *testing.T) {
	// A far-future booking (a memory fill) must not block present
	// traffic: the present request schedules into the gap.
	var r Resource
	if got := r.Reserve(300, 10); got != 300 {
		t.Fatalf("future booking starts at %d, want 300", got)
	}
	if got := r.Reserve(5, 10); got != 5 {
		t.Fatalf("present request got %d, want the gap at 5", got)
	}
	// A request that cannot fit before the future booking lands after it.
	if got := r.Reserve(295, 10); got != 310 {
		t.Fatalf("overlapping request got %d, want 310 (after the booking)", got)
	}
	if r.BusyCycles() != 30 {
		t.Fatalf("busy cycles %d, want 30", r.BusyCycles())
	}
}

func TestResourceGapMustFitWholeDuration(t *testing.T) {
	var r Resource
	r.Reserve(20, 10) // [20,30)
	// A 15-cycle job at 10 cannot fit the 10-cycle gap: it goes after.
	if got := r.Reserve(10, 15); got != 30 {
		t.Fatalf("oversized job got %d, want 30", got)
	}
	// A 10-cycle job exactly fits the gap [10,20).
	if got := r.Reserve(10, 10); got != 10 {
		t.Fatalf("exact-fit job got %d, want 10", got)
	}
}

func TestResourcePruningKeepsFutureBookings(t *testing.T) {
	var r Resource
	r.Reserve(1000, 10) // far future
	for at := Time(0); at < 50; at += 10 {
		r.Reserve(at, 10) // present traffic, pruned as time passes
	}
	// The future booking must still be honoured.
	if got := r.Reserve(1000, 10); got != 1010 {
		t.Fatalf("future booking lost: new request got %d, want 1010", got)
	}
}

func TestResourceZeroDuration(t *testing.T) {
	var r Resource
	if got := r.Reserve(7, 0); got != 7 {
		t.Fatalf("zero-duration reservation got %d, want 7", got)
	}
	if r.BusyCycles() != 0 {
		t.Fatal("zero-duration reservation should not accrue busy cycles")
	}
}
