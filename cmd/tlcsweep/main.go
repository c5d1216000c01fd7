// Command tlcsweep explores the design space beyond the paper's family:
// memory-latency sensitivity, the banked-DRAM substrate, seed robustness,
// and the transmission-line geometry acceptance region.
//
//	tlcsweep -memory        # execution time vs memory model (flat vs DRAM)
//	tlcsweep -seeds         # seed robustness of the headline comparisons
//	tlcsweep -geometry      # width x length signal-integrity acceptance
//	tlcsweep -contention    # CMP: cycles + coherence traffic vs core count
//	tlcsweep -bench mcf     # benchmark for the simulation sweeps
//	tlcsweep -par 8         # simulation parallelism (local execution)
//	tlcsweep -quick         # shorter runs (tlctables -quick lengths)
//	tlcsweep -ckptdir DIR   # persist warm-state checkpoints across runs
//	tlcsweep -metrics FILE  # full registry dump for every simulated run
//	tlcsweep -remote ADDR   # run the sweeps against a tlcd server
//
// All simulation sweeps share one warm-state checkpoint store: the memory
// sweep's flat and banked-DRAM runs warm identically (warm-up is functional),
// and the seed sweep shares one warm prefix across its seeds, so each
// (design, benchmark) pair warms at most once per invocation.
//
// Simulation runs are deterministic and independent, so output is
// byte-identical for every -par value: workers fill result slots keyed by
// grid position and rendering stays serial. The same holds across -remote:
// each sweep's grid goes up as one POST /v1/sweeps and streams back as
// NDJSON, points landing in result slots by index as they complete — the
// server executes the identical deterministic simulations, and rendering
// is the same serial code, so local and served output match byte for byte
// (the CI service-e2e job asserts exactly this).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/client"
	"tlc/internal/cliopt"
	"tlc/internal/experiments"
	"tlc/internal/report"
	"tlc/internal/tline"
)

var par = flag.Int("par", runtime.NumCPU(), "simulation parallelism (local execution)")

var jsonOut = flag.String("json", "", `write sweep timing JSON to FILE ("-" for stdout): per-grid-point wall times plus lane-sharing stats`)

// sweepOptions is the base configuration every simulation sweep starts
// from: the accelerator flags applied plus the invocation-wide checkpoint
// store, so warm state is shared wherever the keys allow.
var sweepOptions func() tlc.Options

// runSpec is one grid point: the full configuration of one simulation.
type runSpec struct {
	design tlc.Design
	bench  string
	opt    tlc.Options
}

// runGrid executes a sweep grid and returns results, full metric-registry
// snapshots, and per-point host wall times (milliseconds) in spec order —
// in process by default (bounded by -par), as one streaming POST /v1/sweeps
// under -remote. Results land by index, so rendering is independent of
// completion order and byte-identical across all execution paths; the
// snapshots carry counters the flat Result does not (the contention sweep
// reads coherence traffic from them), and wall times are local measurements
// (or the server's, under -remote) feeding only the -json timing report,
// never the rendered tables.
var runGrid func(specs []runSpec) ([]tlc.Result, []tlc.MetricsSnapshot, []float64, error)

// timing collects the -json report: per-grid-point wall times (so
// lane-grouping wins are visible point by point, not just in the
// aggregate) plus the lane-sharing stats of the local warm passes.
type timing struct {
	mu    sync.Mutex
	Grids []gridJSON `json:"grids"`
	Lanes lanesJSON  `json:"lanes"`
}

type gridJSON struct {
	Sweep string `json:"sweep"`
	// WallMS is the grid's elapsed host wall time; the per-point walls
	// overlap under -par, so they sum to more than this.
	WallMS float64     `json:"wall_ms"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	Index  int     `json:"index"`
	Design string  `json:"design"`
	Bench  string  `json:"bench"`
	Seed   int64   `json:"seed"`
	WallMS float64 `json:"wall_ms"`
	Cycles uint64  `json:"cycles"`
}

type lanesJSON struct {
	Groups        uint64 `json:"groups"`
	LanesWarmed   uint64 `json:"lanes_warmed"`
	BatchesShared uint64 `json:"batches_shared"`
	ScalarPoints  uint64 `json:"scalar_points"`
}

var timings = &timing{}

// recordGrid appends one executed grid to the -json report.
func (t *timing) recordGrid(sweep string, specs []runSpec, results []tlc.Result, walls []float64, elapsed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := gridJSON{Sweep: sweep, WallMS: float64(elapsed.Microseconds()) / 1000}
	for i, s := range specs {
		g.Points = append(g.Points, pointJSON{
			Index:  i,
			Design: s.design.String(),
			Bench:  s.bench,
			Seed:   s.opt.Seed,
			WallMS: walls[i],
			Cycles: results[i].Cycles,
		})
	}
	t.Grids = append(t.Grids, g)
}

// write emits the report to -json's target.
func (t *timing) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func main() {
	bench := flag.String("bench", "mcf", "benchmark for simulation sweeps")
	memoryF := flag.Bool("memory", false, "flat vs banked-DRAM memory sweep")
	seedsF := flag.Bool("seeds", false, "seed robustness sweep")
	geometryF := flag.Bool("geometry", false, "transmission-line geometry acceptance")
	contentionF := flag.Bool("contention", false, "CMP contention sweep: cycles and coherence traffic vs core count")
	quick := flag.Bool("quick", false, "shorter runs: 2M warm / 200K timed instructions")
	remote := flag.String("remote", "", "run simulations on a tlcd server at this base URL")
	accel := cliopt.Register()
	flag.Parse()

	store := tlc.NewCheckpointStore(0, accel.CkptDir)
	sweepOptions = func() tlc.Options {
		opt := tlc.DefaultOptions()
		if *quick {
			opt.WarmInstructions = 2_000_000
			opt.RunInstructions = 200_000
		}
		if err := accel.Apply(&opt); err != nil {
			log.Fatal(err)
		}
		opt.Checkpoints = store
		return opt
	}

	if *remote != "" {
		runGrid = remoteGrid(*remote)
	} else {
		runGrid = localGrid()
	}

	any := false
	if *memoryF {
		memorySweep(*bench)
		any = true
	}
	if *seedsF {
		seedSweep(*bench)
		any = true
	}
	if *geometryF {
		geometrySweep()
		any = true
	}
	if *contentionF {
		contentionSweep(*bench)
		any = true
	}
	if !any {
		memorySweep(*bench)
		seedSweep(*bench)
		geometrySweep()
	}
	// Every local sweep's Options came from sweepOptions (Apply), so one
	// dump collects across all suites of the invocation. (Remote runs
	// execute on the server; -metrics collects nothing there.)
	if err := accel.WriteMetrics(); err != nil {
		log.Fatal(err)
	}
	if *jsonOut != "" {
		if err := timings.write(*jsonOut); err != nil {
			log.Fatal(err)
		}
	}
}

// localGrid executes grids in process through per-options suites: one
// suite per distinct option set (a suite keys its run cache by design and
// benchmark only), all sharing the invocation's checkpoint store via
// sweepOptions. Concurrency is bounded by -par.
func localGrid() func([]runSpec) ([]tlc.Result, []tlc.MetricsSnapshot, []float64, error) {
	var mu sync.Mutex
	suites := make(map[string]*experiments.Suite)
	run := func(s runSpec) (tlc.Result, tlc.MetricsSnapshot, error) {
		key := s.opt.ContentKey()
		mu.Lock()
		suite, ok := suites[key]
		if !ok {
			suite = experiments.NewSuite(s.opt)
			suites[key] = suite
		}
		mu.Unlock()
		res, err := suite.RunErr(s.design, s.bench)
		if err != nil {
			return res, nil, err
		}
		snap, _ := suite.RunMetrics(s.design, s.bench)
		return res, snap, nil
	}
	return func(specs []runSpec) ([]tlc.Result, []tlc.MetricsSnapshot, []float64, error) {
		// Lane phase: grid points sharing a workload stream (every spec
		// here shares the invocation's checkpoint store) warm once through
		// a lane-parallel pass; the runs below then restore instead of
		// re-warming. Results are pinned bit-identical either way.
		points := make([]experiments.GridPoint, len(specs))
		for i, s := range specs {
			points[i] = experiments.GridPoint{Design: s.design, Bench: s.bench, Opt: s.opt}
		}
		lt := experiments.WarmGrid(points, 1)
		timings.Lanes.Groups += lt.Groups
		timings.Lanes.LanesWarmed += lt.Lanes
		timings.Lanes.BatchesShared += lt.Batches
		timings.Lanes.ScalarPoints += lt.ScalarPoints

		results := make([]tlc.Result, len(specs))
		snaps := make([]tlc.MetricsSnapshot, len(specs))
		walls := make([]float64, len(specs))
		errs := make([]error, len(specs))
		grid(len(specs), func(i int) {
			start := time.Now()
			results[i], snaps[i], errs[i] = run(specs[i])
			walls[i] = float64(time.Since(start).Microseconds()) / 1000
		})
		for _, err := range errs {
			if err != nil {
				return nil, nil, nil, err
			}
		}
		return results, snaps, walls, nil
	}
}

// remoteGrid executes grids on a tlcd server: one streaming sweep request
// per grid, NDJSON points filling result slots by index as they complete.
// Identical configurations coalesce and cache server-side; records embed
// the complete tlc.Result, so the sweeps render exactly what a local run
// produces.
func remoteGrid(base string) func([]runSpec) ([]tlc.Result, []tlc.MetricsSnapshot, []float64, error) {
	c := client.New(base, &http.Client{})
	if err := c.Health(context.Background()); err != nil {
		log.Fatalf("tlcsweep: -remote %s: %v", base, err)
	}
	return func(specs []runSpec) ([]tlc.Result, []tlc.MetricsSnapshot, []float64, error) {
		sreq := api.SweepRequest{Points: make([]api.RunRequest, len(specs))}
		for i, s := range specs {
			sreq.Points[i] = api.RunRequest{
				Design:    s.design.String(),
				Benchmark: s.bench,
				Options:   api.FromOptions(s.opt),
			}
		}
		results := make([]tlc.Result, len(specs))
		snaps := make([]tlc.MetricsSnapshot, len(specs))
		walls := make([]float64, len(specs))
		got := 0
		err := c.Sweep(context.Background(), sreq, func(p api.SweepPoint) error {
			if p.Index < 0 || p.Index >= len(specs) {
				return fmt.Errorf("sweep point index %d outside grid of %d", p.Index, len(specs))
			}
			s := specs[p.Index]
			if p.Error != "" {
				return fmt.Errorf("sweep point %s/%s: %s", s.design, s.bench, p.Error)
			}
			res, err := p.Record.ToResult()
			if err != nil {
				return fmt.Errorf("sweep point %s/%s: %w", s.design, s.bench, err)
			}
			results[p.Index] = res
			snaps[p.Index] = p.Record.Metrics
			walls[p.Index] = p.Record.WallMS
			got++
			return nil
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if got != len(specs) {
			return nil, nil, nil, fmt.Errorf("sweep stream ended after %d of %d points", got, len(specs))
		}
		return results, snaps, walls, nil
	}
}

// grid runs fn over n points with -par-bounded concurrency; results land
// by index so rendering order is independent of completion order.
func grid(n int, fn func(i int)) {
	sem := make(chan struct{}, max(1, *par))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func memorySweep(bench string) {
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}
	flatOpt := sweepOptions()
	drOpt := flatOpt
	drOpt.UseDRAM = true

	// Both memory models' rows fill from one grid; the table renders
	// serially from the result slots.
	specs := make([]runSpec, 0, 2*len(designs))
	for i := 0; i < 2*len(designs); i++ {
		opt := flatOpt
		if i >= len(designs) {
			opt = drOpt
		}
		specs = append(specs, runSpec{designs[i%len(designs)], bench, opt})
	}
	start := time.Now()
	results, _, walls, err := runGrid(specs)
	if err != nil {
		log.Fatal(err)
	}
	timings.recordGrid("memory", specs, results, walls, time.Since(start))

	t := report.NewTable(fmt.Sprintf("Memory-model sensitivity (%s)", bench),
		"Design", "Flat 300 (cycles)", "Banked DRAM (cycles)", "Ratio")
	for i, d := range designs {
		fr := results[i]
		br := results[i+len(designs)]
		t.AddRow(d.String(), float64(fr.Cycles), float64(br.Cycles),
			float64(br.Cycles)/float64(fr.Cycles))
	}
	fmt.Println(t)
	fmt.Println("The cache-design comparison should survive the memory model;")
	fmt.Println("large ratios here would mean conclusions hinge on the flat 300.")
	fmt.Println()
}

func seedSweep(bench string) {
	seeds := []int64{1, 2, 3, 5, 8}
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}

	// Mirror tlc.RunSeeds: the warm stream is pinned to the first seed so
	// every seed measures from identical warm state (one warm-up per
	// design, via the shared checkpoint store — or the server's, under
	// -remote); the timed stream reseeds per run. Per-seed results are
	// summarized with tlc.SummarizeSeeds in seed order, so the statistics
	// match RunSeeds bit for bit.
	specs := make([]runSpec, 0, len(designs)*len(seeds))
	for i := 0; i < len(designs)*len(seeds); i++ {
		opt := sweepOptions()
		opt.WarmSeed = seeds[0]
		opt.Seed = seeds[i%len(seeds)]
		specs = append(specs, runSpec{designs[i/len(seeds)], bench, opt})
	}
	start := time.Now()
	results, _, walls, err := runGrid(specs)
	if err != nil {
		log.Fatal(err)
	}
	timings.recordGrid("seeds", specs, results, walls, time.Since(start))

	t := report.NewTable(fmt.Sprintf("Seed robustness over %v (%s)", seeds, bench),
		"Design", "Cycles mean", "Cycles spread", "Lookup mean", "Lookup spread")
	for i, d := range designs {
		cs := make([]float64, len(seeds))
		ls := make([]float64, len(seeds))
		for j := range seeds {
			res := results[i*len(seeds)+j]
			cs[j] = float64(res.Cycles)
			ls[j] = res.MeanLookup
		}
		cyc, lookup := tlc.SummarizeSeeds(cs), tlc.SummarizeSeeds(ls)
		t.AddRow(d.String(), cyc.Mean, fmt.Sprintf("%.2f%%", cyc.Spread()*100),
			lookup.Mean, fmt.Sprintf("%.2f%%", lookup.Spread()*100))
	}
	fmt.Println(t)
}

// contentionSweep renders the CMP contention figure through the sweep
// grid: all six designs at 1, 2, and 4 cores on one benchmark, with the
// sharing pattern taken from the -sharing flags. The grid goes through
// runGrid, so the figure computes identically in process and against a
// tlcd server (-remote); coherence traffic comes from the
// per-point metric snapshots, which the service embeds in its records.
func contentionSweep(bench string) {
	points := experiments.ContentionGrid(tlc.Designs(), experiments.ContentionCoreCounts())
	specs := make([]runSpec, len(points))
	for i, p := range points {
		opt := sweepOptions()
		opt.Cores = p.Cores
		specs[i] = runSpec{p.Design, bench, opt}
	}
	start := time.Now()
	results, snaps, walls, err := runGrid(specs)
	if err != nil {
		log.Fatal(err)
	}
	timings.recordGrid("contention", specs, results, walls, time.Since(start))

	for i := range points {
		points[i].Result = results[i]
		points[i].Metrics = snaps[i]
	}
	fmt.Println(experiments.ContentionTable(bench, points))
	fmt.Println("Slowdown normalizes each design's cycles to its own 1-core run: the")
	fmt.Println("cost of sharing the L2 — arbitration plus MSI coherence — as cores grow.")
	fmt.Println()
}

func geometrySweep() {
	t := report.NewTable("Geometry acceptance with shielding analysis (S=W, H=1.75um, T=3um)",
		"W (um)", "1.3cm amplitude", "xtalk shielded", "xtalk bare", "accept shielded", "accept bare", "max bare length")
	for _, w := range []float64{1.5, 2.0, 2.5, 3.0, 3.5} {
		g := tline.Geometry{WidthUM: w, SpacingUM: w, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 1.3}
		n := tline.AnalyzeNoise(g)
		t.AddRow(w, n.AmplitudeFrac, n.CrosstalkShielded, n.CrosstalkUnshielded,
			fmt.Sprintf("%v", n.OKShielded), fmt.Sprintf("%v", n.OKUnshielded),
			unshieldedMax(g))
	}
	fmt.Println(t)
	fmt.Println("The alternating power/ground shields (Section 3) are what make")
	fmt.Println("centimeter-scale lines viable: bare layouts fail on coupled noise")
	fmt.Println("well short of the floorplan's 0.9-1.3 cm runs.")
}

// unshieldedMax formats the longest viable bare run, or "none".
func unshieldedMax(g tline.Geometry) string {
	max := tline.MaxUnshieldedLengthCM(g)
	if max == 0 {
		return "none"
	}
	return fmt.Sprintf("%.2f cm", max)
}
