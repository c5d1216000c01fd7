package machine

import (
	"fmt"

	"tlc/internal/cpu"
	"tlc/internal/sim"
)

// quantum is the interleaving grain of the CMP event loop, in instructions
// per scheduling slice. It matches the cpu batch size, so a slice is one
// stream-batch fill; the min-clock scheduler keeps the cores' simulated
// clocks within roughly one slice of each other, which bounds how far the
// controller frontier can run ahead of a lagging core.
const quantum = 4096

// Machine runs N cores as peers: it owns the loop that a single cpu.Core's
// caller used to be, scheduling detailed execution across cores in
// min-clock order so the shared L2 sees an interleaving close to true
// parallel issue. It implements sample.Target, so sampled CMP runs reuse
// the interval math unchanged.
//
// A 1-core Machine, built with a nil Shared layer, makes the plain
// single-core call sequence: Warm is one core.Warm call and each Interval
// is one RunFrom/Resume call.
type Machine struct {
	cores   []*cpu.Core
	streams []cpu.Stream
	shared  *Shared

	clocks    []sim.Time
	remaining []uint64
	// inEpoch[i] marks that core i's timing epoch is open: its next
	// detailed quantum continues via Resume. Interval 0 clears the flags,
	// so each core's first quantum starts its epoch at cycle zero.
	inEpoch []bool
	// out holds the one lane's result Interval returns.
	out [1]cpu.Result
}

// New assembles a machine. shared must be non-nil exactly when there are
// two or more cores (the single-core machine bypasses the CMP layers
// entirely); the caller has already built each core over shared.Port(i)
// and called Attach.
func New(cores []*cpu.Core, streams []cpu.Stream, shared *Shared) *Machine {
	if len(cores) == 0 || len(cores) != len(streams) {
		panic("machine: need one stream per core")
	}
	if (len(cores) > 1) != (shared != nil) {
		panic("machine: Shared layer iff multi-core")
	}
	return &Machine{
		cores:     cores,
		streams:   streams,
		shared:    shared,
		clocks:    make([]sim.Time, len(cores)),
		remaining: make([]uint64, len(cores)),
		inEpoch:   make([]bool, len(cores)),
	}
}

// DirectorySnapshot captures the coherence directory; a single-core
// machine has none and returns nil.
func (m *Machine) DirectorySnapshot() []DirEntry {
	if m.shared == nil {
		return nil
	}
	return m.shared.DirectorySnapshot()
}

// RestoreDirectory replaces the coherence directory with a captured
// snapshot (see Shared.RestoreDirectory). A single-core machine accepts
// only an empty one.
func (m *Machine) RestoreDirectory(entries []DirEntry) error {
	if m.shared != nil {
		return m.shared.RestoreDirectory(entries)
	}
	if len(entries) > 0 {
		return fmt.Errorf("machine: %d directory entries for a single-core machine", len(entries))
	}
	return nil
}

// Clock reports the machine's current time: the latest core's clock.
func (m *Machine) Clock() sim.Time {
	var t sim.Time
	for _, c := range m.clocks {
		if c > t {
			t = c
		}
	}
	return t
}

// Warm advances every core's stream n instructions functionally, then
// reseeds the coherence directory from the resulting L1 contents — warm-up
// runs without coherence, so each warm stretch (initial or sampled-mode
// fast-forward) re-enters the coherent regime through SeedDirectory.
func (m *Machine) Warm(n uint64) {
	for i, c := range m.cores {
		c.Warm(m.streams[i], n)
		if c.CancelErr() != nil {
			return
		}
	}
	if m.shared != nil && n > 0 {
		m.shared.SeedDirectory()
	}
}

// Run times n instructions per core from a cold pipeline and returns the
// machine-wide result.
func (m *Machine) Run(n uint64) cpu.Result { return m.interval(0, n) }

// Lanes implements sample.Target: a machine is one lane, however many
// cores it has.
func (m *Machine) Lanes() int { return 1 }

// Interval implements sample.Target: n detailed instructions per core, as
// the machine's one lane.
func (m *Machine) Interval(i int, n uint64) []cpu.Result {
	m.out[0] = m.interval(i, n)
	return m.out[:]
}

// interval times n detailed instructions per core. Interval 0 starts every
// core's timing epoch at cycle zero; later intervals resume the epochs. The
// result aggregates all cores — Instructions and the L1/L2 counters sum
// over cores, Cycles is the machine finish time (the latest core's clock),
// so per-interval CPI reads as machine cycles per per-core instruction.
func (m *Machine) interval(i int, n uint64) cpu.Result {
	if i == 0 {
		for j := range m.inEpoch {
			m.inEpoch[j] = false
			m.clocks[j] = 0
		}
	}
	if len(m.cores) == 1 {
		// The single-core sequence, verbatim: one call per interval.
		var r cpu.Result
		if !m.inEpoch[0] {
			m.inEpoch[0] = true
			r = m.cores[0].RunFrom(m.streams[0], n, 0)
		} else {
			r = m.cores[0].Resume(m.streams[0], n)
		}
		m.clocks[0] = r.Cycles
		return r
	}
	return m.interleave(n)
}

// interleave is the CMP event loop: repeatedly run a quantum of detailed
// instructions on the core whose clock is furthest behind. Each core's own
// stream of L2 access times stays monotone (its epoch continues across
// quanta via Resume), and min-clock order keeps the interleaving the
// controller frontier sees close to a truly parallel schedule.
func (m *Machine) interleave(n uint64) cpu.Result {
	var agg cpu.Result
	for i := range m.remaining {
		m.remaining[i] = n
	}
	for {
		// Pick the laggard among cores with work left.
		pick := -1
		for i, rem := range m.remaining {
			if rem == 0 {
				continue
			}
			if pick < 0 || m.clocks[i] < m.clocks[pick] {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		q := m.remaining[pick]
		if q > quantum {
			q = quantum
		}
		var r cpu.Result
		if !m.inEpoch[pick] {
			m.inEpoch[pick] = true
			r = m.cores[pick].RunFrom(m.streams[pick], q, 0)
		} else {
			r = m.cores[pick].Resume(m.streams[pick], q)
		}
		if m.cores[pick].CancelErr() != nil {
			return agg
		}
		m.clocks[pick] = r.Cycles
		m.remaining[pick] -= q
		agg.Instructions += r.Instructions
		agg.L1DHits += r.L1DHits
		agg.L1DMisses += r.L1DMisses
		agg.L2Loads += r.L2Loads
		agg.L2Stores += r.L2Stores
	}
	agg.Cycles = m.Clock()
	return agg
}

// CancelErr reports the first core's cancellation error, if any run was
// aborted by the cooperative cancel hook.
func (m *Machine) CancelErr() error {
	for _, c := range m.cores {
		if err := c.CancelErr(); err != nil {
			return err
		}
	}
	return nil
}
