package sim

// Resource models a single-server resource: a bank port, a transmission-
// line link, or a mesh link segment. A reservation occupies the resource
// for a fixed number of cycles; overlapping requests queue.
//
// The resource keeps a calendar of future busy intervals rather than a
// single free-at horizon, so traffic booked in the future (a memory fill
// arriving 300 cycles after its miss resolves) does not block present
// traffic: a present request schedules into the gap. Intervals wholly in
// the past relative to the latest request are pruned; a rare
// earlier-timestamped reservation may therefore see slightly less
// contention than it should, which is the documented approximation.
//
// Resource tracks busy cycles so callers can compute utilization, the
// metric behind Figure 7.
type Resource struct {
	// intervals holds future/active busy spans, sorted by start,
	// non-overlapping.
	intervals []span
	// busy accumulates total occupied cycles (including pruned spans).
	busy Time
	// waits counts reservations that could not start at their request
	// time.
	waits uint64
	// waitCycles accumulates total queuing delay.
	waitCycles Time
	// reservations counts all reservations.
	reservations uint64
}

type span struct {
	start, end Time
}

// Reserve books the resource for dur cycles starting no earlier than `at`,
// in the earliest gap that fits. It returns the cycle service starts.
func (r *Resource) Reserve(at, dur Time) Time {
	r.reservations++
	r.busy += dur
	if dur == 0 {
		return at
	}
	// Prune spans that end at or before `at`: they cannot conflict with
	// this or (in the common monotone-time case) any later reservation.
	// Compact in place rather than re-slicing forward so the backing
	// array's capacity is retained — the calendar reaches a steady-state
	// size and stops allocating.
	i := 0
	for i < len(r.intervals) && r.intervals[i].end <= at {
		i++
	}
	if i > 0 {
		n := copy(r.intervals, r.intervals[i:])
		r.intervals = r.intervals[:n]
	}
	// Find the earliest gap of length dur starting at or after `at`.
	start := at
	insert := len(r.intervals)
	for j, s := range r.intervals {
		if start+dur <= s.start {
			insert = j
			break
		}
		if s.end > start {
			start = s.end
		}
	}
	r.intervals = append(r.intervals, span{})
	copy(r.intervals[insert+1:], r.intervals[insert:])
	r.intervals[insert] = span{start: start, end: start + dur}
	if start > at {
		r.waits++
		r.waitCycles += start - at
	}
	return start
}

// BusyCycles reports the total cycles ever reserved.
func (r *Resource) BusyCycles() Time { return r.busy }

// Reservations reports the number of reservations made.
func (r *Resource) Reservations() uint64 { return r.reservations }

// Waits reports how many reservations queued behind earlier ones.
func (r *Resource) Waits() uint64 { return r.waits }

// WaitCycles reports the total cycles reservations spent queued.
func (r *Resource) WaitCycles() Time { return r.waitCycles }

// Reset clears all bookkeeping, returning the resource to idle at cycle 0.
func (r *Resource) Reset() { *r = Resource{} }
