package sample

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/machine"
	"tlc/internal/mem"
	"tlc/internal/sim"
	"tlc/internal/stats"
	"tlc/internal/workload"
)

// fixedL2 answers every access with a fixed latency.
type fixedL2 struct{ lat sim.Time }

func (f *fixedL2) Access(at sim.Time, req mem.Request) l2.Outcome {
	if req.Type == mem.Store {
		return l2.Outcome{Hit: true, ResolveAt: at, CompleteAt: at}
	}
	return l2.Outcome{Hit: true, ResolveAt: at + f.lat, CompleteAt: at + f.lat, BanksAccessed: 1}
}
func (f *fixedL2) Warm(mem.Block)          {}
func (f *fixedL2) Contains(mem.Block) bool { return true }

// run drives a uniform sampled measurement on a warmed core through a
// 1-core machine, the target every production run uses.
func run(t *testing.T, core *cpu.Core, s cpu.Stream, total uint64, intervals int, length uint64, observe func(Interval)) Estimate {
	t.Helper()
	p, err := UniformPlan(total, intervals, length)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New([]*cpu.Core{core}, []cpu.Stream{s}, nil)
	return Run(m, p, observe)
}

func TestValidate(t *testing.T) {
	cases := []struct {
		opt   Options
		total uint64
		ok    bool
	}{
		{Options{Intervals: 10, Length: 1000}, 100_000, true},
		{Options{Intervals: 10, Length: 10_000}, 100_000, true}, // exactly full coverage
		{Options{Intervals: 10, Length: 10_001}, 100_000, false},
		{Options{Intervals: 0, Length: 1000}, 100_000, false},
		{Options{Intervals: 4, Length: 0}, 100_000, false},
		// Intervals × Length wraps to 0 in 64 bits; the plan still needs
		// 2^64 detailed instructions.
		{Options{Intervals: 2, Length: 1 << 63}, 2_000_000, false},
		{Options{Intervals: 1 << 32, Length: 1 << 32}, 2_000_000, false},
		{Options{Intervals: 3, Length: 1_000_000}, 2_000_000, false},
	}
	for _, c := range cases {
		err := c.opt.Validate(c.total)
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v, %d) = %v, want ok=%v", c.opt, c.total, err, c.ok)
		}
	}
}

func TestRunAdvancesStreamExactlyTotal(t *testing.T) {
	spec, _ := workload.SpecByName("oltp")
	const total = 200_000
	// Two identical generators: one driven by the sampled run, one advanced
	// total instructions directly. They must end at the same stream
	// position regardless of the fast-forward remainder distribution.
	g1 := workload.New(spec, 1)
	g2 := workload.New(spec, 1)
	core := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	run(t, core, g1, total, 7, 3_000, nil)
	for i := 0; i < total; i++ {
		g2.Next()
	}
	if g1.State() != g2.State() {
		t.Fatal("sampled run advanced the stream a different number of instructions than a full run")
	}
}

func TestRunIntervalsAreContiguousAndObserved(t *testing.T) {
	spec, _ := workload.SpecByName("oltp")
	const intervals, length = 5, 2_000
	core := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	g := workload.New(spec, 2)
	var seen []Interval
	var lastFinish sim.Time
	est := run(t, core, g, 100_000, intervals, length, func(iv Interval) {
		if iv.Index != len(seen) || iv.Stratum != 0 {
			t.Fatalf("interval %d of stratum %d, want %d of the one stratum", iv.Index, iv.Stratum, len(seen))
		}
		if iv.Result.Cycles-iv.Cycles != lastFinish {
			t.Fatalf("interval %d started at %d, previous finished at %d",
				iv.Index, iv.Result.Cycles-iv.Cycles, lastFinish)
		}
		lastFinish = iv.Result.Cycles
		seen = append(seen, iv)
	})
	if len(seen) != intervals || est.Intervals != intervals {
		t.Fatalf("observer called %d times, estimate counts %d intervals, want %d", len(seen), est.Intervals, intervals)
	}
	if est.FinalClock != lastFinish {
		t.Fatalf("FinalClock %d, last interval finished at %d", est.FinalClock, lastFinish)
	}
	if est.Detailed != intervals*length {
		t.Fatalf("Detailed = %d, want %d", est.Detailed, intervals*length)
	}
}

func TestEstimateScalesCPIToTotal(t *testing.T) {
	// Against a uniform machine (fixed-latency L2, L1-resident stream) the
	// per-interval CPI is nearly constant, so the estimate must land within
	// a fraction of a percent of a full detailed run, with a tiny CI.
	spec, _ := workload.SpecByName("oltp")
	const total = 400_000
	sampled := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	sg := workload.New(spec, 3)
	sampled.Warm(sg, 100_000)
	est := run(t, sampled, sg, total, 10, 4_000, nil)

	full := cpu.New(config.DefaultSystem(), &fixedL2{lat: 13})
	fg := workload.New(spec, 3)
	full.Warm(fg, 100_000)
	want := full.Run(fg, total)

	rel := math.Abs(est.Cycles-float64(want.Cycles)) / float64(want.Cycles)
	if rel > 0.03 {
		t.Fatalf("sampled estimate %.0f vs full %d cycles: %.1f%% error", est.Cycles, want.Cycles, 100*rel)
	}
	if ci := est.CyclesCI; ci < 0 || ci > 0.2*est.Cycles {
		t.Fatalf("confidence interval ±%.0f implausible for estimate %.0f", ci, est.Cycles)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec, _ := workload.SpecByName("apache")
	one := func() Estimate {
		core := cpu.New(config.DefaultSystem(), &fixedL2{lat: 21})
		g := workload.New(spec, 9)
		core.Warm(g, 50_000)
		return run(t, core, g, 150_000, 6, 2_500, nil)
	}
	a, b := one(), one()
	if a != b {
		t.Fatalf("identical sampled runs diverged: %+v vs %+v", a, b)
	}
}

// recordingTarget logs every Warm and Interval call, counts the
// instructions warmed and timed, and scripts each interval's CPI (1 when
// cpi is nil), so a plan's call sequence and estimate can be checked
// exactly.
type recordingTarget struct {
	calls         []string
	cpi           func(i int) float64
	clock         float64
	warmed, timed uint64
}

func (r *recordingTarget) Warm(n uint64) {
	r.calls = append(r.calls, fmt.Sprintf("W%d", n))
	r.warmed += n
}

func (r *recordingTarget) Interval(i int, n uint64) cpu.Result {
	r.calls = append(r.calls, fmt.Sprintf("I%d:%d", i, n))
	r.timed += n
	cpi := 1.0
	if r.cpi != nil {
		cpi = r.cpi(i)
	}
	r.clock += cpi * float64(n)
	return cpu.Result{Cycles: sim.Time(r.clock), Instructions: n}
}

// TestUniformPlanCallSequence pins the uniform schedule: before each
// interval one fast-forward stretch, the first (total-detailed) %
// intervals stretches one instruction longer, and an estimate of Total
// times the mean interval CPI with the interval-to-interval CI.
func TestUniformPlanCallSequence(t *testing.T) {
	const total, intervals, length = 10_003, 4, 1_000
	p, err := UniformPlan(total, intervals, length)
	if err != nil {
		t.Fatal(err)
	}
	cpis := []float64{1, 1.5, 2, 1.25}
	tgt := &recordingTarget{cpi: func(i int) float64 { return cpis[i] }}
	est := Run(tgt, p, nil)
	want := []string{"W1501", "I0:1000", "W1501", "I1:1000", "W1501", "I2:1000", "W1500", "I3:1000"}
	if !reflect.DeepEqual(tgt.calls, want) {
		t.Errorf("calls %v, want %v", tgt.calls, want)
	}
	var s stats.Sample
	for _, c := range cpis {
		s.Observe(c)
	}
	if est.Total != total || est.Detailed != intervals*length || est.Intervals != intervals {
		t.Errorf("estimate shape %d/%d/%d, want %d/%d/%d", est.Total, est.Detailed, est.Intervals, total, intervals*length, intervals)
	}
	if est.Cycles != s.Mean()*total {
		t.Errorf("cycles %v, want Total × mean CPI %v", est.Cycles, s.Mean()*total)
	}
	if want := s.CI95() * total; math.Abs(est.CyclesCI-want) > 1e-12*want {
		t.Errorf("cycles CI %v, want %v", est.CyclesCI, want)
	}
}

// FuzzSamplePlan checks both plan builders against the options they come
// from: whenever Options.Validate accepts a run of total instructions, the
// uniform plan, or the plan of a profile clustered from synthetic
// features, covers exactly total instructions with at most total of them
// detailed, weighs its strata to total, keeps every stratum index in
// range, and times one interval per requested interval (uniform) or per
// representative (phase). Sums are taken overflow-checked, so a plan that
// only wraps to total fails too.
func FuzzSamplePlan(f *testing.F) {
	f.Add(uint64(200_000), 50, uint64(2_000), 0, 0)
	f.Add(uint64(10_003), 4, uint64(1_000), 0, 0)
	f.Add(uint64(100_000), 10, uint64(10_000), 0, 0)
	f.Add(uint64(2_000_000), 2, uint64(1<<63), 0, 0)
	f.Add(uint64(2_000_000), 1<<32, uint64(1<<32), 0, 0)
	f.Add(uint64(200_000), 0, uint64(2_000), 40, 14)
	f.Add(uint64(10), 0, uint64(0), 7, 7)
	f.Fuzz(func(t *testing.T, total uint64, intervals int, length uint64, windows, clusters int) {
		opt := Options{Intervals: intervals, Length: length, PhaseWindows: windows, PhaseClusters: clusters}
		if opt.Validate(total) != nil {
			return
		}
		var plan Plan
		wantIntervals := uint64(intervals)
		if opt.Phase() {
			if windows > 256 {
				return // keep the clustering cheap
			}
			feats := make([][]float64, windows)
			for w := range feats {
				x := float64((uint64(w)*2654435761 ^ total) % 7)
				feats[w] = []float64{x, float64(w % 3), 1 + x/4}
			}
			p := BuildProfile("fuzz", total, opt, feats, WindowLengths(total, windows))
			if err := p.Check(total, opt); err != nil {
				t.Fatalf("built profile fails its own Check: %v", err)
			}
			plan = p.Plan()
			wantIntervals = uint64(len(p.Reps))
		} else {
			var err error
			if plan, err = UniformPlan(total, intervals, length); err != nil {
				t.Fatalf("Validate accepts what UniformPlan rejects: %v", err)
			}
		}
		add := func(acc *uint64, n, times uint64) {
			hi, lo := bits.Mul64(n, times)
			sum, carry := bits.Add64(*acc, lo, 0)
			if hi != 0 || carry != 0 {
				t.Fatalf("plan instruction count overflows 64 bits: %+v", plan.Steps)
			}
			*acc = sum
		}
		var covered, detailed, timed, weight uint64
		for _, s := range plan.Steps {
			if s.Stratum < 0 || s.Stratum >= len(plan.Weights) {
				t.Fatalf("step %+v names stratum %d of %d", s, s.Stratum, len(plan.Weights))
			}
			add(&covered, s.Warm, s.Repeat)
			add(&covered, s.Detail, s.Repeat)
			if s.Detail > 0 {
				add(&detailed, s.Detail, s.Repeat)
				add(&timed, 1, s.Repeat)
			}
		}
		for _, w := range plan.Weights {
			add(&weight, w, 1)
		}
		if covered != total || detailed > total || weight != total {
			t.Fatalf("plan covers %d, details %d, weighs %d instructions of a %d-instruction run", covered, detailed, weight, total)
		}
		if timed != wantIntervals {
			t.Fatalf("plan times %d intervals, want %d", timed, wantIntervals)
		}
		if timed <= 1<<12 {
			var c recordingTarget
			est := Run(&c, plan, nil)
			if est.Total != total || c.warmed+c.timed != total || est.Detailed != detailed || uint64(est.Intervals) != timed {
				t.Fatalf("run advanced %d+%d instructions (estimate %d, %d detailed, %d intervals), want %d, %d detailed, %d intervals",
					c.warmed, c.timed, est.Total, est.Detailed, est.Intervals, total, detailed, timed)
			}
		}
	})
}
