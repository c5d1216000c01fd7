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
	"tlc/internal/api"
	"tlc/internal/cliopt"
	"tlc/internal/experiments"
)

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
	err = s.RunAll(designs, benches, *par)
	accel.WarnDisk(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	switch {
	case *jsonF:
		// The service's run record, with the complete Result attached. The
		// record's wall time stays zero: stdout is byte-identical for every
		// -par value.
		out := make([]api.RunRecord, 0, len(designs)*len(benches))
		for _, d := range designs {
			for _, b := range benches {
				res := s.Run(d, b)
				var sres *tlc.SampledResult
				if s.Sampled() {
					sr, err := s.SampledErr(d, b)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(2)
					}
					sres = &sr
				}
				rec := api.RecordFrom(res, sres, nil, 0)
				rec.Result = &res
				out = append(out, rec)
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
