// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) from the simulation stack: the per-experiment
// index in DESIGN.md maps each function here to its table or figure.
// Simulation results are cached per (design, benchmark) within a Suite so
// tables that share runs (Table 6, Table 9, Figures 5-8) pay for each run
// once.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"tlc"
	"tlc/internal/config"
	"tlc/internal/report"
	"tlc/internal/tline"
	"tlc/internal/wire"
)

// Suite caches simulation runs for one Options setting. It is safe for
// concurrent use: concurrent requests for the same (design, benchmark) key
// join one in-flight simulation (per-key singleflight) instead of
// duplicating it, and requests for distinct keys proceed in parallel.
//
// Simulations are deterministic and independent per key, so a Suite driven
// by RunAll produces bit-identical results to serial Run calls — the
// property that lets full-table regeneration use every core while emitting
// byte-identical output.
type Suite struct {
	Opt tlc.Options

	// OnRun, when set before the first Run, observes every underlying
	// simulation as it completes (cache hits do not fire it). RunAll calls
	// it from its worker goroutines, so the hook must be safe for
	// concurrent use.
	OnRun func(RunEvent)

	// NoLanes, when set before the first RunAll, disables the lane-parallel
	// warm phase: every grid point warms scalar inside its own run. Results
	// are bit-identical either way — the switch exists so artifacts and
	// benchmarks can measure the scalar baseline.
	NoLanes bool

	mu    sync.Mutex
	cache map[runKey]*flight
	m     Metrics
	// gridStore is the in-memory checkpoint store RunAll makes for the
	// lane phase when Opt has none; runs use it from then on (options).
	gridStore *tlc.CheckpointStore

	// runMetrics holds each executed run's full registry snapshot, fed by
	// the OnMetrics hook NewSuite installs, which fires from RunAll's worker
	// goroutines — s.mu makes the map race-safe, and cached duplicate runs
	// do not re-fire, so each (design, benchmark) is recorded exactly once.
	runMetrics map[runKey]tlc.MetricsSnapshot
}

// RunEvent describes one completed underlying simulation.
type RunEvent struct {
	Design    tlc.Design
	Benchmark string
	// Wall is the simulation's host wall-clock time.
	Wall time.Duration
	// Result is the completed run's result (zero on error).
	Result tlc.Result
	// Err is the simulation error, if any.
	Err error
}

// Metrics summarizes a suite's cache behavior and simulation cost, the
// observability counters behind sweep progress reporting.
type Metrics struct {
	// Simulated counts underlying simulations actually executed.
	Simulated uint64
	// CacheHits counts Run requests served from the cache or by joining
	// an in-flight simulation of the same key.
	CacheHits uint64
	// SimWall is the summed wall-clock time of all underlying
	// simulations (CPU-seconds of simulation, not elapsed time: parallel
	// runs overlap).
	SimWall time.Duration

	// Lane-phase totals, summed from every WarmGrid's LaneTally (the
	// field docs are there). Add LaneWall to SimWall when comparing a
	// lane-phased sweep's total simulation cost against a scalar one: the
	// runs' own wall no longer carries the warm-up the passes pre-paid.
	// A timed lane pass books its warm half here and its timed half to
	// SimWall, split evenly over its lanes, each counted once in Simulated.
	LaneGroups       uint64
	LanesWarmed      uint64
	LaneBatches      uint64
	LaneScalarPoints uint64
	LaneWall         time.Duration
}

// flight is one singleflight cache entry: the first requester of a key
// installs it and simulates; later requesters block on done.
type flight struct {
	done chan struct{}
	res  tlc.Result
	// sres carries the confidence intervals when the suite runs sampled;
	// sres.Result == res in that mode.
	sres tlc.SampledResult
	err  error
}

type runKey struct {
	d     tlc.Design
	bench string
}

// NewSuite builds a suite with the given run options. The suite chains its
// own metrics capture onto opt.OnMetrics: every executed run's registry
// snapshot is retained (RunMetrics); a caller-supplied hook still fires
// afterwards.
func NewSuite(opt tlc.Options) *Suite {
	s := &Suite{
		cache:      make(map[runKey]*flight),
		runMetrics: make(map[runKey]tlc.MetricsSnapshot),
	}
	user := opt.OnMetrics
	opt.OnMetrics = func(ev tlc.MetricsEvent) {
		s.recordMetrics(ev)
		if user != nil {
			user(ev)
		}
	}
	s.Opt = opt
	return s
}

// recordMetrics folds one finished run's snapshot into the suite.
func (s *Suite) recordMetrics(ev tlc.MetricsEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runMetrics[runKey{ev.Design, ev.Benchmark}] = ev.Snapshot
}

// RunMetrics returns the full registry snapshot of the (design, benchmark)
// run, if it has executed. The snapshot is safe to retain and read
// concurrently with further runs.
func (s *Suite) RunMetrics(d tlc.Design, bench string) (tlc.MetricsSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.runMetrics[runKey{d, bench}]
	return snap, ok
}

// Run returns the cached result for (design, benchmark), simulating on
// first use. It panics on an unknown benchmark name — table builders only
// pass names from tlc.Benchmarks(); use RunErr for error propagation.
func (s *Suite) Run(d tlc.Design, bench string) tlc.Result {
	r, err := s.RunErr(d, bench)
	if err != nil {
		panic(err)
	}
	return r
}

// Sampled reports whether the suite runs in sampled mode — uniform
// intervals or phase-aware representatives (confidence intervals available
// via SampledErr, error columns added to figures).
func (s *Suite) Sampled() bool { return s.Opt.Sampled() }

// SampledErr returns the sampled result for (design, benchmark), including
// its confidence intervals. The suite must be in sampled mode.
func (s *Suite) SampledErr(d tlc.Design, bench string) (tlc.SampledResult, error) {
	if !s.Sampled() {
		return tlc.SampledResult{}, fmt.Errorf("experiments: suite is not in sampled mode")
	}
	f, err := s.run(d, bench)
	if err != nil {
		return tlc.SampledResult{}, err
	}
	return f.sres, nil
}

// sampled is SampledErr with the Run panic contract, for figure builders.
func (s *Suite) sampled(d tlc.Design, bench string) tlc.SampledResult {
	r, err := s.SampledErr(d, bench)
	if err != nil {
		panic(err)
	}
	return r
}

// RunErr is Run with error propagation instead of panic.
func (s *Suite) RunErr(d tlc.Design, bench string) (tlc.Result, error) {
	f, err := s.run(d, bench)
	if err != nil {
		return tlc.Result{}, err
	}
	return f.res, nil
}

// run is the singleflight core shared by RunErr and SampledErr: the first
// requester of a key simulates, later ones wait on its flight.
func (s *Suite) run(d tlc.Design, bench string) (*flight, error) {
	key := runKey{d, bench}
	f, owner := s.claim(key)
	if !owner {
		s.mu.Lock()
		s.m.CacheHits++
		s.mu.Unlock()
		<-f.done
		return f, f.err
	}
	s.execute(key, f)
	return f, f.err
}

// claim returns key's flight, installing a new one when there is none;
// owner reports that the caller installed it and must complete it with
// execute or finish.
func (s *Suite) claim(key runKey) (f *flight, owner bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.cache[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	s.cache[key] = f
	return f, true
}

// options returns the options the suite's runs take: Opt, with the grid
// store RunAll made when Opt has no checkpoint store.
func (s *Suite) options() tlc.Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	opt := s.Opt
	if opt.Checkpoints == nil {
		opt.Checkpoints = s.gridStore
	}
	return opt
}

// execute simulates a claimed flight on its own and completes it.
func (s *Suite) execute(key runKey, f *flight) {
	start := time.Now()
	if s.Sampled() {
		f.sres, f.err = tlc.RunSampled(key.d, key.bench, s.options())
		f.res = f.sres.Result
	} else {
		f.res, f.err = tlc.Run(key.d, key.bench, s.options())
	}
	s.finish(key, f, time.Since(start))
}

// finish completes an executed flight: it books one simulation and its
// wall time, releases the flight's waiters and fires OnRun.
func (s *Suite) finish(key runKey, f *flight, wall time.Duration) {
	s.mu.Lock()
	s.m.Simulated++
	s.m.SimWall += wall
	s.mu.Unlock()
	close(f.done)
	if s.OnRun != nil {
		s.OnRun(RunEvent{Design: key.d, Benchmark: key.bench, Wall: wall, Result: f.res, Err: f.err})
	}
}

// Seed installs an already-computed result for (d, bench), making later
// table and figure builds of that key pure cache lookups. The tlcd server
// uses it to render a figure from the records its grid fill returned,
// without re-simulating. A key that is already cached or in flight is left
// alone. sres carries the confidence intervals when the suite runs
// sampled; it may be nil otherwise.
func (s *Suite) Seed(d tlc.Design, bench string, res tlc.Result, sres *tlc.SampledResult) {
	f := &flight{done: make(chan struct{}), res: res}
	if sres != nil {
		f.sres = *sres
	}
	close(f.done)
	key := runKey{d, bench}
	s.mu.Lock()
	if _, ok := s.cache[key]; !ok {
		s.cache[key] = f
	}
	s.mu.Unlock()
}

// Metrics reports a snapshot of the suite's cache and timing counters.
func (s *Suite) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}

// RunAll simulates the full design x benchmark grid, bounded by par
// workers, and returns the first error encountered (concurrently failing
// runs report one of them). Results land in the cache, so subsequent table
// builds are pure lookups; on error the remaining grid is still attempted,
// keeping the cache state independent of error ordering. Unless NoLanes is
// set, a suite whose options hold no checkpoint store gains an in-memory
// one, sized to its first multi-design grid, for this and later runs.
func (s *Suite) RunAll(designs []tlc.Design, benches []string, par int) error {
	if par < 1 {
		par = 1
	}
	if !s.NoLanes && len(designs) > 1 {
		// The lane phase carries warm state to the runs through a
		// checkpoint store, so a storeless suite gets an in-memory one.
		// Sized to the grid: the default capacity (64) is smaller than the
		// full 6x12 grid, and LRU eviction between the warm phase and the
		// runs would silently re-warm the evicted points scalar.
		s.mu.Lock()
		if s.Opt.Checkpoints == nil && s.gridStore == nil {
			s.gridStore = tlc.NewCheckpointStore(len(designs)*len(benches), "")
		}
		s.mu.Unlock()
	}
	opt := s.options()
	// Lane phase: pay each benchmark's warm-up once for all designs through
	// a shared stream — and, for one-core suites, time them together too —
	// so the workers below restore checkpoints or find cached results
	// instead of re-warming per point. Purely an accelerator — results are
	// pinned bit-identical to scalar runs.
	points := make([]GridPoint, 0, len(designs)*len(benches))
	for _, d := range designs {
		for _, b := range benches {
			points = append(points, GridPoint{Design: d, Bench: b, Opt: opt})
		}
	}
	s.WarmGrid(points, par)
	type job struct {
		d tlc.Design
		b string
	}
	jobs := make(chan job)
	errs := make(chan error, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for j := range jobs {
				if _, err := s.RunErr(j.d, j.b); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, d := range designs {
		for _, b := range benches {
			jobs <- job{d, b}
		}
	}
	close(jobs)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Table1 reproduces Table 1 plus the physical quantities the paper's
// HSPICE study validates: extracted Z0, flight time, received amplitude,
// and pulse width, with the two acceptance criteria.
func Table1() *report.Table {
	t := report.NewTable("Table 1: Transmission Line Dimensions and Signal Integrity",
		"Length", "W (um)", "S (um)", "H (um)", "T (um)", "Z0 (ohm)", "Flight (ps)", "Amplitude (xVdd)", "Pulse (ps)", "OK")
	for _, rep := range tlc.AnalyzeLines() {
		g := rep.Geometry
		t.AddRow(fmt.Sprintf("%.1f cm", g.LengthCM), g.WidthUM, g.SpacingUM, g.HeightUM, g.ThicknessUM,
			rep.RLC.Z0, rep.FlightPs, rep.AmplitudeFrac, rep.PulseWidthPs, fmt.Sprintf("%v", rep.OK))
	}
	return t
}

// Table2 reproduces the design-parameter table.
func Table2() *report.Table {
	t := report.NewTable("Table 2: Design Parameters",
		"Design", "Banks", "Banks/Block", "Bank Size", "Lines/Pair", "Total Lines", "Uncontended Latency", "Bank Access")
	for _, d := range tlc.Designs() {
		min, max := tlc.UncontendedRange(d)
		lat := fmt.Sprintf("%d - %d cycles", min, max)
		if min == max {
			lat = fmt.Sprintf("%d cycles", min)
		}
		switch d {
		case tlc.DesignSNUCA2, tlc.DesignDNUCA:
			p := config.NUCAFor(d)
			t.AddRow(d.String(), p.Banks, 1, fmt.Sprintf("%d KB", p.BankBytes/1024),
				"n/a", "n/a", lat, fmt.Sprintf("%d cycles", p.BankAccess))
		default:
			p := config.TLCFor(d)
			t.AddRow(d.String(), p.Banks, p.BanksPerBlock, fmt.Sprintf("%d KB", p.BankBytes/1024),
				p.LinesPerPair, p.TotalLines(), lat, fmt.Sprintf("%d cycles", p.BankAccess))
		}
	}
	return t
}

// Table6 reproduces the benchmark-characteristics table.
func (s *Suite) Table6() *report.Table {
	t := report.NewTable("Table 6: Benchmark Characteristics",
		"Bench", "L2 Req/1K", "TLC miss/1K", "DNUCA miss/1K", "DNUCA close%", "DNUCA prom/ins", "TLC pred%", "DNUCA pred%")
	for _, b := range tlc.Benchmarks() {
		tr := s.Run(tlc.DesignTLC, b)
		dr := s.Run(tlc.DesignDNUCA, b)
		reqPer1K := float64(tr.L2Loads+tr.L2Stores) / float64(tr.Instructions) * 1000
		t.AddRow(b, reqPer1K, tr.MissesPer1K, dr.MissesPer1K, dr.CloseHitPct,
			dr.PromotesPerInsert, tr.PredictablePct, dr.PredictablePct)
	}
	return t
}

// Table7 reproduces the substrate-area table.
func Table7() *report.Table {
	t := report.NewTable("Table 7: Consumed Substrate Area",
		"Design", "Storage (mm2)", "Channel (mm2)", "Controller (mm2)", "Total (mm2)")
	for _, d := range []tlc.Design{tlc.DesignDNUCA, tlc.DesignTLC, tlc.DesignSNUCA2,
		tlc.DesignTLCOpt1000, tlc.DesignTLCOpt500, tlc.DesignTLCOpt350} {
		a := tlc.Area(d)
		t.AddRow(d.String(), a.StorageMM2, a.ChannelMM2, a.ControlMM2, a.TotalMM2())
	}
	return t
}

// Table8 reproduces the network-transistor table.
func Table8() *report.Table {
	t := report.NewTable("Table 8: Cache Communication Network Characteristics",
		"Design", "Total Transistors", "Total Gate Width (Mlambda)")
	for _, d := range []tlc.Design{tlc.DesignDNUCA, tlc.DesignTLC} {
		n := tlc.Transistors(d)
		t.AddRow(d.String(), fmt.Sprintf("%.2g", float64(n.Count)), n.GateWidthLambda/1e6)
	}
	return t
}

// Table9 reproduces the dynamic-power table.
func (s *Suite) Table9() *report.Table {
	t := report.NewTable("Table 9: Dynamic Components",
		"Bench", "DNUCA banks/req", "TLC banks/req", "DNUCA power (mW)", "TLC power (mW)")
	for _, b := range tlc.Benchmarks() {
		dr := s.Run(tlc.DesignDNUCA, b)
		tr := s.Run(tlc.DesignTLC, b)
		t.AddRow(b, dr.BanksPerRequest, tr.BanksPerRequest,
			dr.NetworkPowerW*1000, tr.NetworkPowerW*1000)
	}
	return t
}

// Figure3 reproduces the cross-sectional comparison's headline: repeated
// conventional-wire delay versus transmission-line delay over distance.
func Figure3() *report.Table {
	t := report.NewTable("Figure 3 (companion): RC wire vs transmission line delay",
		"Length (mm)", "Bare RC (ps)", "Repeated RC (ps)", "Transmission line (ps)", "TL speedup")
	gw := wire.Global45()
	tg := tline.Table1()[2] // widest line class
	rl := tline.Extract(tg)
	for _, mm := range []float64{1, 2, 5, 9, 11, 13, 20} {
		bare := wire.UnrepeatedDelayPs(gw, mm)
		rep := wire.Repeat(gw, mm).DelayPs
		tl := mm * 1e-3 / rl.Velocity * 1e12
		t.AddRow(mm, bare, rep, tl, rep/tl)
	}
	return t
}

// execSeries builds normalized execution time for the given designs,
// normalized to SNUCA2 (Figures 5 and 8). In sampled mode each design gets
// a companion "± " series: the 95% confidence half-width of its normalized
// value, from per-interval CPI variation (the baseline's own uncertainty is
// not propagated — the columns bound each design's estimate, not the
// ratio's joint distribution).
func (s *Suite) execSeries(designs []tlc.Design) *report.Figure {
	benches := tlc.Benchmarks()
	f := report.NewFigure("", benches)
	base := make([]float64, len(benches))
	for i, b := range benches {
		base[i] = float64(s.Run(tlc.DesignSNUCA2, b).Cycles)
	}
	for _, d := range designs {
		vals := make([]float64, len(benches))
		errs := make([]float64, len(benches))
		for i, b := range benches {
			if s.Sampled() {
				r := s.sampled(d, b)
				vals[i] = float64(r.Cycles) / base[i]
				errs[i] = r.CyclesCI / base[i]
			} else {
				vals[i] = float64(s.Run(d, b).Cycles) / base[i]
			}
		}
		f.AddSeries(d.String(), vals)
		if s.Sampled() {
			f.AddSeries("± "+d.String(), errs)
		}
	}
	return f
}

// Figure5 reproduces the normalized execution time comparison.
func (s *Suite) Figure5() *report.Figure {
	f := s.execSeries([]tlc.Design{tlc.DesignDNUCA, tlc.DesignTLC})
	f.Title = "Figure 5: Normalized Execution Time (SNUCA2 = 1.0)"
	return f
}

// Figure6 reproduces the mean cache lookup latency comparison.
func (s *Suite) Figure6() *report.Figure {
	benches := tlc.Benchmarks()
	f := report.NewFigure("Figure 6: Mean Cache Lookup Latency (cycles)", benches)
	for _, d := range []tlc.Design{tlc.DesignDNUCA, tlc.DesignTLC} {
		vals := make([]float64, len(benches))
		errs := make([]float64, len(benches))
		for i, b := range benches {
			if s.Sampled() {
				r := s.sampled(d, b)
				vals[i] = r.MeanLookup
				errs[i] = r.MeanLookupCI
			} else {
				vals[i] = s.Run(d, b).MeanLookup
			}
		}
		f.AddSeries(d.String(), vals)
		if s.Sampled() {
			f.AddSeries("± "+d.String(), errs)
		}
	}
	return f
}

// Figure7 reproduces the TLC-family link utilization comparison.
func (s *Suite) Figure7() *report.Figure {
	benches := tlc.Benchmarks()
	f := report.NewFigure("Figure 7: TLC Average Link Utilization (%)", benches)
	for _, d := range tlc.TLCFamily() {
		vals := make([]float64, len(benches))
		for i, b := range benches {
			vals[i] = s.Run(d, b).LinkUtilization * 100
		}
		f.AddSeries(d.String(), vals)
	}
	return f
}

// Figure8 reproduces the TLC-family normalized execution time comparison.
func (s *Suite) Figure8() *report.Figure {
	f := s.execSeries(tlc.TLCFamily())
	f.Title = "Figure 8: TLC Family Normalized Execution Time (SNUCA2 = 1.0)"
	return f
}
