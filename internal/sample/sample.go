// Package sample implements sampled simulation: instead of timing every
// instruction of the measured region, a run follows a Plan, an ordered
// list of steps that fast-forward functionally (cache state advances, no
// timing) and time detailed intervals, and estimates whole-run metrics from
// the timed intervals. Every detailed interval belongs to a stratum, and a
// stratum's instruction weight is how much of the run it stands for. Two
// plans exist, and one executor (Run) drives both:
//
//   - UniformPlan: SMARTS-style sampling, equally spaced short intervals
//     in one stratum that weighs the whole run;
//   - Profile.Plan: phase sampling, one stratum per program phase whose
//     representative window is timed whole.
//
// Bueno et al. and Zhang et al. (PAPERS.md) show such interval sampling
// reproduces cache and CPI metrics within tight error bounds at a fraction
// of the cost; the detailed fraction here is typically a few percent.
//
// Timing convention: detailed intervals are contiguous on the simulated
// clock — interval i+1 resumes the pipeline at interval i's finish via
// cpu.Core.Resume — because the L2 designs require non-decreasing access
// times and because a pipeline restart per interval would bias CPI. The
// fast-forward stretches occupy no simulated time, so the final clock spans
// exactly the detailed work — utilization and power metrics computed over
// it are estimates for the measured execution, just like the miss rates.
package sample

import (
	"fmt"
	"math"

	"tlc/internal/cpu"
	"tlc/internal/sim"
	"tlc/internal/stats"
)

// Options selects sampled execution. The zero value (no intervals, no
// phase windows) means full detailed simulation. Uniform mode (Intervals >
// 0) and phase mode (PhaseWindows/PhaseClusters > 0) are mutually
// exclusive.
type Options struct {
	// Intervals is the number of detailed measurement intervals (uniform
	// SMARTS-style sampling).
	Intervals int
	// Length is the number of instructions timed in detail per interval
	// (uniform mode; phase mode times whole windows of total/PhaseWindows).
	Length uint64

	// PhaseWindows slices the run into this many fixed profiling windows
	// for phase-aware sampling; PhaseClusters is the k-means cluster count.
	// Both positive selects phase mode: one detailed interval per cluster
	// representative instead of Intervals uniform ones.
	PhaseWindows  int
	PhaseClusters int
}

// maxPhaseWindows and maxPhaseCells bound a phase plan's shape: profiling
// and k-means cost grows with windows × clusters, so an unbounded shape
// that fits the run could still hold a worker for hours. The default shape
// is 40 × 14.
const (
	maxPhaseWindows = 1 << 16
	maxPhaseCells   = 1 << 20
)

// Phase reports whether the options request phase-aware sampling. A
// half-set pair still reports true so Validate can name the missing field.
func (o Options) Phase() bool { return o.PhaseWindows > 0 || o.PhaseClusters > 0 }

// Validate checks the options against a run of total instructions. Error
// messages name the offending field and its value.
func (o Options) Validate(total uint64) error {
	if o.Phase() {
		return o.validatePhase(total)
	}
	_, err := UniformPlan(total, o.Intervals, o.Length)
	return err
}

// validatePhase checks the phase-mode field combination.
func (o Options) validatePhase(total uint64) error {
	if o.Intervals > 0 {
		return fmt.Errorf("sample: Intervals=%d combined with PhaseWindows=%d/PhaseClusters=%d; uniform and phase sampling are mutually exclusive",
			o.Intervals, o.PhaseWindows, o.PhaseClusters)
	}
	if o.PhaseWindows <= 0 {
		return fmt.Errorf("sample: PhaseWindows=%d; phase mode needs at least 1 window (set with PhaseClusters=%d)",
			o.PhaseWindows, o.PhaseClusters)
	}
	if o.PhaseClusters <= 0 {
		return fmt.Errorf("sample: PhaseClusters=%d; phase mode needs at least 1 cluster (set with PhaseWindows=%d)",
			o.PhaseClusters, o.PhaseWindows)
	}
	if o.PhaseClusters > o.PhaseWindows {
		return fmt.Errorf("sample: PhaseClusters=%d exceeds PhaseWindows=%d; cannot have more clusters than windows",
			o.PhaseClusters, o.PhaseWindows)
	}
	if uint64(o.PhaseWindows) > total {
		return fmt.Errorf("sample: PhaseWindows=%d exceeds the %d-instruction run; need at least one instruction per window",
			o.PhaseWindows, total)
	}
	if o.PhaseWindows > maxPhaseWindows {
		return fmt.Errorf("sample: PhaseWindows=%d exceeds the %d-window limit", o.PhaseWindows, maxPhaseWindows)
	}
	if uint64(o.PhaseWindows)*uint64(o.PhaseClusters) > maxPhaseCells {
		return fmt.Errorf("sample: PhaseWindows=%d × PhaseClusters=%d exceeds the %d-cell clustering limit",
			o.PhaseWindows, o.PhaseClusters, maxPhaseCells)
	}
	// Length is a uniform-mode knob: phase mode times whole windows, so the
	// interval length is total/PhaseWindows by construction.
	return nil
}

// Step is one stretch of a plan, executed Repeat times: fast-forward Warm
// instructions, then, when Detail > 0, time Detail instructions as one
// detailed interval of stratum Stratum. A zero Warm makes no fast-forward
// call, which is the same as making one: Machine.Warm(0) does nothing.
// Repeat keeps a uniform plan two steps long at any interval count, so a
// plan of 2^32 intervals costs no memory.
type Step struct {
	Warm, Detail uint64
	Stratum      int
	Repeat       uint64
}

// Plan is a sampled run's schedule: steps that together advance each
// stream exactly the run's total instructions, and one instruction weight
// per stratum, the weights also summing to that total.
type Plan struct {
	Steps []Step
	// Weights[h] is the number of instructions stratum h stands for.
	Weights []uint64
	// ProxySE[h] and ProxyRep[h] give a stratum that times fewer than two
	// intervals, and so cannot observe its own spread, a prior one: the
	// standard error of the CPI proxy over the stratum's windows, and the
	// proxy of the window it times. Nil in a uniform plan.
	ProxySE, ProxyRep []float64
}

// UniformPlan schedules SMARTS-style sampling of total instructions:
// intervals detailed intervals of length instructions, each after an equal
// fast-forward stretch (the first (total-detailed) % intervals stretches
// are one instruction longer), all in one stratum weighing total. It is
// the one check of a uniform plan: the detailed instructions must fit the
// run, a test made without forming their product, which can overflow.
func UniformPlan(total uint64, intervals int, length uint64) (Plan, error) {
	if intervals <= 0 {
		return Plan{}, fmt.Errorf("sample: Intervals=%d; need at least 1 detailed interval", intervals)
	}
	if length == 0 {
		return Plan{}, fmt.Errorf("sample: Length=0; need a positive detailed-interval length")
	}
	n := uint64(intervals)
	if length > total/n {
		return Plan{}, fmt.Errorf("sample: Intervals=%d × Length=%d detailed instructions exceed the %d-instruction run; use a full run",
			intervals, length, total)
	}
	ff := total - n*length
	ffPer, ffExtra := ff/n, ff%n
	p := Plan{Weights: []uint64{total}}
	if ffExtra > 0 {
		p.Steps = append(p.Steps, Step{Warm: ffPer + 1, Detail: length, Repeat: ffExtra})
	}
	if n > ffExtra {
		p.Steps = append(p.Steps, Step{Warm: ffPer, Detail: length, Repeat: n - ffExtra})
	}
	return p, nil
}

// Interval is one detailed measurement, passed to the observer so callers
// can sample their own per-interval statistics (the harness reads L2 stat
// deltas here).
type Interval struct {
	// Index is the interval number, 0-based.
	Index int
	// Stratum is the plan stratum the interval measures.
	Stratum int
	// Cycles is the detailed duration of this interval.
	Cycles sim.Time
	// Result is the core's timing result for the interval; Result.Cycles
	// is the absolute finish clock.
	Result cpu.Result
}

// Estimate aggregates a sampled run.
type Estimate struct {
	// Total is the number of instructions the estimate represents.
	Total uint64
	// Detailed is the number of instructions simulated in detail.
	Detailed uint64
	// Intervals is the number of measurement intervals taken.
	Intervals int
	// FinalClock is the absolute simulated clock after the last detailed
	// interval — the window over which timing resources accumulated.
	FinalClock sim.Time
	// Cycles estimates the full run's cycle count: Σ_h W_h × the mean CPI
	// of stratum h's intervals. Calibrate may sharpen it.
	Cycles float64
	// CyclesCI is the 95% confidence half-width on Cycles.
	CyclesCI float64
}

// Target is what a sampled measurement drives: anything that can advance
// its instruction streams functionally (Warm) and time a detailed interval
// (Interval) on each of its Lanes() back ends. internal/machine's Machine
// is the one-lane target: it advances each of its N >= 1 cores and reports
// the machine-wide result (Cycles = the latest core's clock). A timed lane
// group (tlc.RunLanes) is the K-lane one: one front end — one stream, one
// L1 — fast-forwards every lane's L2 at once and drives K back ends
// through each interval. Interval i == 0 starts every timing epoch at
// cycle zero; later intervals resume them rather than restarting the
// pipeline, keeping the simulated clock monotone as the L2 designs require
// and keeping per-interval refill/drain transients out of the measured
// CPI.
type Target interface {
	Lanes() int
	Warm(n uint64)
	// Interval returns one result per lane, in lane order; the slice is
	// the target's and valid until the next call.
	Interval(i int, n uint64) []cpu.Result
}

// Run executes a sampled measurement on a warmed target, step by step in
// plan order, and returns one Estimate per lane. Instruction counts are per
// stream (per core, for a multi-core machine). CPI observations are target
// cycles per per-stream instruction, so an estimate's Cycles projects its
// lane's clock over the full run. observe, if non-nil, is called after each
// detailed interval once per lane, in lane order. The plan must come from
// UniformPlan or a checked Profile.Plan.
//
// Both kinds of step ride the batched cpu.Stream protocol: fast-forward
// stretches take cpu.Core.Warm's NextMems path (non-memory instructions
// skipped as run-length counts, bulk L2 installs), and the detailed
// intervals consume NextBatch batches.
func Run(t Target, p Plan, observe func(lane int, iv Interval)) []Estimate {
	k := t.Lanes()
	var total, detailed uint64
	intervals := 0
	cpi := make([][]stats.Sample, k)
	for j := range cpi {
		cpi[j] = make([]stats.Sample, len(p.Weights))
	}
	clocks := make([]sim.Time, k)
	for _, s := range p.Steps {
		for r := uint64(0); r < s.Repeat; r++ {
			total += s.Warm + s.Detail
			if s.Warm > 0 {
				t.Warm(s.Warm)
			}
			if s.Detail == 0 {
				continue
			}
			for j, res := range t.Interval(intervals, s.Detail) {
				dur := res.Cycles - clocks[j]
				clocks[j] = res.Cycles
				cpi[j][s.Stratum].Observe(float64(dur) / float64(s.Detail))
				if observe != nil {
					observe(j, Interval{Index: intervals, Stratum: s.Stratum, Cycles: dur, Result: res})
				}
			}
			detailed += s.Detail
			intervals++
		}
	}
	ests := make([]Estimate, k)
	for j := range ests {
		ests[j] = Estimate{Total: total, Detailed: detailed, Intervals: intervals, FinalClock: clocks[j]}
		ests[j].Cycles, ests[j].CyclesCI = p.estimate(cpi[j])
	}
	return ests
}

// estimate folds per-stratum CPI observations into the cycle estimate
// Σ_h W_h × mean_h and its 95% half-width. One half-width per stratum
// combines in quadrature: W_h times the observed CI when the stratum timed
// two or more intervals, else W_h times the CPI-proxy standard error,
// scaled to observed-CPI terms by the timed window's observed/proxy ratio.
// A stratum with neither contributes zero, as stats.Sample does for n < 2.
func (p Plan) estimate(cpi []stats.Sample) (cycles, ci float64) {
	var sumsq float64
	for h, s := range cpi {
		w := float64(p.Weights[h])
		cycles += w * s.Mean()
		var hw float64
		if s.N() >= 2 {
			hw = w * s.CI95()
		} else if p.ProxySE != nil {
			ratio := 1.0
			if rep := p.ProxyRep[h]; rep > 0 && s.Mean() > 0 {
				ratio = s.Mean() / rep
			}
			hw = 1.96 * w * p.ProxySE[h] * ratio
		}
		sumsq += hw * hw
	}
	return cycles, math.Sqrt(sumsq)
}
