// Command tlcsim runs one or more benchmarks on one or more cache designs
// and prints the full statistics block, a compact grid, or JSON:
//
//	tlcsim -design TLC -bench gcc
//	tlcsim -design DNUCA -bench mcf -run 5000000
//	tlcsim -design all -bench all -par 8        # full grid, all cores
//	tlcsim -design TLC,DNUCA -bench gcc -json   # machine-readable results
//	tlcsim -bench gcc -ckptdir ~/.tlc-ckpt      # reuse warm state on disk
//	tlcsim -bench gcc -sample 50 -samplelen 2000  # sampled execution, ± CI
//	tlcsim -bench gcc -metrics metrics.json     # full registry dump per run
//	tlcsim -list
//
// Grid runs execute in parallel (deduplicated per key by the experiment
// engine) but results print in grid order, so output is byte-identical for
// every -par value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"tlc"
	"tlc/internal/cliopt"
	"tlc/internal/experiments"
)

// runJSON is the machine-readable headline record for one run.
type runJSON struct {
	Design          string  `json:"design"`
	Benchmark       string  `json:"benchmark"`
	Instructions    uint64  `json:"instructions"`
	Cycles          uint64  `json:"cycles"`
	IPC             float64 `json:"ipc"`
	L2Loads         uint64  `json:"l2_loads"`
	L2Stores        uint64  `json:"l2_stores"`
	MissesPer1K     float64 `json:"misses_per_1k"`
	MeanLookup      float64 `json:"mean_lookup_cycles"`
	PredictablePct  float64 `json:"predictable_pct"`
	BanksPerRequest float64 `json:"banks_per_request"`
	LinkUtilization float64 `json:"link_utilization"`
	NetworkPowerW   float64 `json:"network_power_w"`

	// Sampled-mode extras: 95% confidence half-widths and the sampling
	// plan. Zero (omitted) for full detailed runs.
	CyclesCI             float64 `json:"cycles_ci,omitempty"`
	MeanLookupCI         float64 `json:"mean_lookup_ci,omitempty"`
	MissesPer1KCI        float64 `json:"misses_per_1k_ci,omitempty"`
	SampleIntervals      int     `json:"sample_intervals,omitempty"`
	DetailedInstructions uint64  `json:"detailed_instructions,omitempty"`
}

func toJSON(r tlc.Result) runJSON {
	return runJSON{
		Design:          r.Design.String(),
		Benchmark:       r.Benchmark,
		Instructions:    r.Instructions,
		Cycles:          r.Cycles,
		IPC:             r.IPC,
		L2Loads:         r.L2Loads,
		L2Stores:        r.L2Stores,
		MissesPer1K:     r.MissesPer1K,
		MeanLookup:      r.MeanLookup,
		PredictablePct:  r.PredictablePct,
		BanksPerRequest: r.BanksPerRequest,
		LinkUtilization: r.LinkUtilization,
		NetworkPowerW:   r.NetworkPowerW,
	}
}

func toJSONSampled(sr tlc.SampledResult) runJSON {
	j := toJSON(sr.Result)
	j.CyclesCI = sr.CyclesCI
	j.MeanLookupCI = sr.MeanLookupCI
	j.MissesPer1KCI = sr.MissesPer1KCI
	j.SampleIntervals = sr.Intervals
	j.DetailedInstructions = sr.DetailedInstructions
	return j
}

func main() {
	design := flag.String("design", "TLC", "cache design(s): comma-separated or 'all'")
	bench := flag.String("bench", "gcc", "benchmark name(s): comma-separated or 'all' (see -list)")
	runN := flag.Uint64("run", 0, "timed instructions (default: standard 2M)")
	warmN := flag.Uint64("warm", 0, "warm-up instructions (default: automatic)")
	seed := flag.Int64("seed", 1, "workload seed")
	par := flag.Int("par", runtime.NumCPU(), "simulation parallelism for grid runs")
	jsonF := flag.Bool("json", false, "emit results as JSON")
	list := flag.Bool("list", false, "list designs and benchmarks")
	accel := cliopt.Register()
	flag.Parse()

	if *list {
		names := make([]string, 0, 6)
		for _, d := range tlc.Designs() {
			names = append(names, d.String())
		}
		fmt.Println("designs:   ", strings.Join(names, ", "))
		fmt.Println("benchmarks:", strings.Join(tlc.Benchmarks(), ", "))
		return
	}

	designs, err := parseDesigns(*design)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (try -list)\n", err)
		os.Exit(2)
	}
	benches := parseBenches(*bench)

	opt := tlc.DefaultOptions()
	opt.Seed = *seed
	if *runN > 0 {
		opt.RunInstructions = *runN
	}
	opt.WarmInstructions = *warmN
	if err := accel.Apply(&opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	s := experiments.NewSuite(opt)
	start := time.Now()
	if err := s.RunAll(designs, benches, *par); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	switch {
	case *jsonF:
		out := make([]runJSON, 0, len(designs)*len(benches))
		for _, d := range designs {
			for _, b := range benches {
				if s.Sampled() {
					sr, err := s.SampledErr(d, b)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(2)
					}
					out = append(out, toJSONSampled(sr))
					continue
				}
				out = append(out, toJSON(s.Run(d, b)))
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case len(designs) == 1 && len(benches) == 1:
		var sres *tlc.SampledResult
		if s.Sampled() {
			sr, err := s.SampledErr(designs[0], benches[0])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			sres = &sr
		}
		printFull(s.Run(designs[0], benches[0]), sres, elapsed)
	default:
		printGrid(s, designs, benches, elapsed)
	}

	if err := accel.WriteMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// printFull is the single-run statistics block. sres, when non-nil, adds the
// sampled-mode confidence intervals and plan.
func printFull(res tlc.Result, sres *tlc.SampledResult, elapsed time.Duration) {
	fmt.Printf("design            %v\n", res.Design)
	fmt.Printf("benchmark         %s\n", res.Benchmark)
	fmt.Printf("instructions      %d\n", res.Instructions)
	if sres != nil {
		fmt.Printf("sampled           %d×%d intervals (%d detailed)\n",
			sres.Intervals, sres.DetailedInstructions/uint64(sres.Intervals), sres.DetailedInstructions)
		fmt.Printf("cycles            %d ± %.0f (95%% CI)\n", res.Cycles, sres.CyclesCI)
	} else {
		fmt.Printf("cycles            %d\n", res.Cycles)
	}
	fmt.Printf("IPC               %.3f\n", res.IPC)
	fmt.Printf("L2 loads          %d\n", res.L2Loads)
	fmt.Printf("L2 stores         %d\n", res.L2Stores)
	fmt.Printf("misses/1K instr   %.3f\n", res.MissesPer1K)
	if sres != nil {
		fmt.Printf("mean lookup       %.2f ± %.2f cycles\n", res.MeanLookup, sres.MeanLookupCI)
	} else {
		fmt.Printf("mean lookup       %.2f cycles\n", res.MeanLookup)
	}
	fmt.Printf("predictable       %.1f%%\n", res.PredictablePct)
	fmt.Printf("banks/request     %.2f\n", res.BanksPerRequest)
	fmt.Printf("network power     %.1f mW\n", res.NetworkPowerW*1000)
	if res.LinkUtilization > 0 {
		fmt.Printf("link utilization  %.2f%%\n", res.LinkUtilization*100)
	}
	if res.Design == tlc.DesignDNUCA {
		fmt.Printf("close hits        %.1f%%\n", res.CloseHitPct)
		fmt.Printf("promotes/inserts  %.2f\n", res.PromotesPerInsert)
	}
	fmt.Printf("(simulated in %v)\n", elapsed)
}

// printGrid is the compact multi-run table. Sampled suites carry an extra
// ±cycles column (the 95% CI half-width of the cycle estimate).
func printGrid(s *experiments.Suite, designs []tlc.Design, benches []string, elapsed time.Duration) {
	if s.Sampled() {
		fmt.Printf("%-12s %-8s %12s %10s %8s %10s %10s\n",
			"design", "bench", "cycles", "±cycles", "IPC", "lookup", "miss/1K")
	} else {
		fmt.Printf("%-12s %-8s %12s %8s %10s %10s\n",
			"design", "bench", "cycles", "IPC", "lookup", "miss/1K")
	}
	for _, d := range designs {
		for _, b := range benches {
			r := s.Run(d, b)
			if s.Sampled() {
				sr, err := s.SampledErr(d, b)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				fmt.Printf("%-12v %-8s %12d %10.0f %8.3f %10.2f %10.3f\n",
					d, b, r.Cycles, sr.CyclesCI, r.IPC, r.MeanLookup, r.MissesPer1K)
				continue
			}
			fmt.Printf("%-12v %-8s %12d %8.3f %10.2f %10.3f\n",
				d, b, r.Cycles, r.IPC, r.MeanLookup, r.MissesPer1K)
		}
	}
	// Timing goes to stderr: grid stdout must stay byte-identical for
	// every -par value.
	m := s.Metrics()
	fmt.Fprintf(os.Stderr, "(%d runs simulated in %v, %v of simulation)\n",
		m.Simulated, elapsed, m.SimWall.Round(time.Millisecond))
}

// parseDesigns resolves a comma-separated design list or "all".
func parseDesigns(arg string) ([]tlc.Design, error) {
	if strings.EqualFold(arg, "all") {
		return tlc.Designs(), nil
	}
	var out []tlc.Design
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		d, ok := parseDesign(name)
		if !ok {
			return nil, fmt.Errorf("unknown design %q", name)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseBenches resolves a comma-separated benchmark list or "all". Unknown
// names pass through: the run reports them as errors with their names.
func parseBenches(arg string) []string {
	if strings.EqualFold(arg, "all") {
		return tlc.Benchmarks()
	}
	var out []string
	for _, b := range strings.Split(arg, ",") {
		out = append(out, strings.TrimSpace(b))
	}
	return out
}

func parseDesign(name string) (tlc.Design, bool) {
	for _, d := range tlc.Designs() {
		if strings.EqualFold(d.String(), name) {
			return d, true
		}
	}
	return 0, false
}
