// Package sample implements SMARTS-style sampled simulation: instead of
// timing every instruction of the measured interval, the runner alternates
// functional fast-forward (cache state advances, no timing) with short
// detailed intervals, and estimates whole-run metrics from the per-interval
// observations. Bueno et al. and Zhang et al. (PAPERS.md) show such
// interval sampling reproduces cache and CPI metrics within tight error
// bounds at a fraction of the cost; the detailed fraction here is typically
// a few percent.
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

// Enabled reports whether the options request sampling (either mode).
func (o Options) Enabled() bool { return o.Intervals > 0 || o.Phase() }

// Phase reports whether the options request phase-aware sampling. A
// half-set pair still reports true so Validate can name the missing field.
func (o Options) Phase() bool { return o.PhaseWindows > 0 || o.PhaseClusters > 0 }

// Validate checks the options against a run of total instructions. Error
// messages name the offending field and its value.
func (o Options) Validate(total uint64) error {
	if o.Phase() {
		return o.validatePhase(total)
	}
	if o.Intervals <= 0 {
		return fmt.Errorf("sample: Intervals=%d; need at least 1 detailed interval", o.Intervals)
	}
	if o.Length == 0 {
		return fmt.Errorf("sample: Length=0; need a positive detailed-interval length")
	}
	detailed := uint64(o.Intervals) * o.Length
	if detailed > total {
		return fmt.Errorf("sample: Intervals=%d × Length=%d detailed instructions exceed the %d-instruction run; use a full run",
			o.Intervals, o.Length, total)
	}
	return nil
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
	// Length is a uniform-mode knob: phase mode times whole windows, so the
	// interval length is total/PhaseWindows by construction.
	return nil
}

// Interval is one detailed measurement, passed to the observer so callers
// can sample their own per-interval statistics (the harness reads L2 stat
// deltas here).
type Interval struct {
	// Index is the interval number, 0-based.
	Index int
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
	// CPI holds the per-interval cycles-per-instruction observations.
	CPI stats.Sample
	// Sums of the detailed per-core counters, for rate estimates.
	L1DHits, L1DMisses, L2Loads, L2Stores uint64

	// Phased marks a phase-mode estimate: WCPI holds the per-cluster CPI
	// observations weighted by cluster instruction counts, PhaseCycles the
	// stratified cycle estimate (sharpened in place by Calibrate when the
	// caller has covariates), and PhaseCI the 95% confidence half-width on
	// Cycles derived from within-cluster feature spread (RunPhased).
	Phased      bool
	WCPI        stats.Weighted
	PhaseCycles float64
	PhaseCI     float64
}

// Cycles estimates the full run's cycle count: Total × mean per-interval
// CPI in uniform mode, the per-cluster stratified (or calibrated) sum in
// phase mode.
func (e *Estimate) Cycles() float64 {
	if e.Phased {
		return e.PhaseCycles
	}
	return e.CPI.Mean() * float64(e.Total)
}

// CyclesCI is the 95% confidence half-width on Cycles: interval-to-interval
// CPI variation in uniform mode, the stratified within-cluster estimate in
// phase mode.
func (e *Estimate) CyclesCI() float64 {
	if e.Phased {
		return e.PhaseCI
	}
	return e.CPI.CI95() * float64(e.Total)
}

// Target is what a sampled measurement drives: anything that can advance
// its instruction streams functionally (Warm) and time a detailed interval
// (Interval). internal/machine's Machine is the target of every run: it
// advances each of its N >= 1 cores and reports the machine-wide result
// (Cycles = the latest core's clock). Interval i == 0 starts the timing
// epoch at cycle zero; later intervals resume it rather than restarting
// the pipeline, keeping the simulated clock monotone as the L2 designs
// require and keeping per-interval refill/drain transients out of the
// measured CPI.
type Target interface {
	Warm(n uint64)
	Interval(i int, n uint64) cpu.Result
}

// RunTarget executes a sampled measurement of total instructions on a
// warmed target: per interval, a functional fast-forward stretch followed
// by opt.Length detailed instructions. Total and Length count instructions
// per stream (per core, for a multi-core machine), and the stream advances
// exactly total instructions. CPI observations are target cycles per
// per-stream instruction, so the estimate's Cycles() projects the target's
// clock over the full run. observe, if non-nil, is called after each
// detailed interval. Options must have been validated.
//
// Both phases ride the batched cpu.Stream protocol: the fast-forward
// stretches take cpu.Core.Warm's NextMems path (non-memory instructions
// skipped as run-length counts, bulk L2 installs), and the detailed
// intervals consume NextBatch batches.
func RunTarget(t Target, total uint64, opt Options, observe func(Interval)) Estimate {
	n := uint64(opt.Intervals)
	detailed := n * opt.Length
	ffPer := (total - detailed) / n
	ffExtra := (total - detailed) % n // first ffExtra intervals skip one more

	est := Estimate{Total: total, Detailed: detailed, Intervals: opt.Intervals}
	var clock sim.Time
	for i := 0; i < opt.Intervals; i++ {
		ff := ffPer
		if uint64(i) < ffExtra {
			ff++
		}
		t.Warm(ff)
		r := t.Interval(i, opt.Length)
		dur := r.Cycles - clock
		clock = r.Cycles
		est.CPI.Observe(float64(dur) / float64(opt.Length))
		est.L1DHits += r.L1DHits
		est.L1DMisses += r.L1DMisses
		est.L2Loads += r.L2Loads
		est.L2Stores += r.L2Stores
		if observe != nil {
			observe(Interval{Index: i, Cycles: dur, Result: r})
		}
	}
	est.FinalClock = clock
	return est
}
