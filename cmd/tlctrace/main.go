// Command tlctrace captures synthetic benchmark traces to disk, inspects
// them, and replays them against a cache design:
//
//	tlctrace -capture gcc.trace -bench gcc -n 5000000
//	tlctrace -info gcc.trace
//	tlctrace -replay gcc.trace -design TLC -run 2000000
//	tlctrace -replay gcc.trace -design TLC -metrics metrics.json
//
// Captured traces replay deterministically, so every design sees
// byte-identical input; they also serve as an interchange point for
// reference streams produced outside this repository.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tlc"
	"tlc/internal/config"
	"tlc/internal/cpu"
	"tlc/internal/l2"
	"tlc/internal/trace"
	"tlc/internal/workload"
)

func main() {
	capture := flag.String("capture", "", "write a trace to this file")
	bench := flag.String("bench", "gcc", "benchmark to capture")
	n := flag.Uint64("n", 5_000_000, "instructions to capture")
	seed := flag.Int64("seed", 1, "workload seed")
	info := flag.String("info", "", "summarize a trace file")
	replay := flag.String("replay", "", "replay a trace against a design")
	design := flag.String("design", "TLC", "design for -replay")
	warmN := flag.Uint64("warm", 2_000_000, "warm-up instructions for -replay")
	runN := flag.Uint64("run", 2_000_000, "timed instructions for -replay")
	metricsF := flag.String("metrics", "",
		"with -replay: dump the design's full metric registry as JSON to this file ('-' for stdout)")
	flag.Parse()

	switch {
	case *capture != "":
		doCapture(*capture, *bench, *n, *seed)
	case *info != "":
		doInfo(*info)
	case *replay != "":
		doReplay(*replay, *design, *warmN, *runN, *metricsF)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func doCapture(path, bench string, n uint64, seed int64) {
	spec, ok := workload.SpecByName(bench)
	if !ok {
		fatal("unknown benchmark %q", bench)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	count, err := trace.Capture(f, workload.New(spec, seed), n)
	if err != nil {
		fatal("capture: %v", err)
	}
	fi, _ := f.Stat()
	fmt.Printf("captured %d instructions of %s to %s (%.2f bytes/instr)\n",
		count, bench, path, float64(fi.Size())/float64(count))
}

func doInfo(path string) {
	r := open(path)
	s := r.Summarize()
	fmt.Printf("instructions   %d\n", s.Instructions)
	fmt.Printf("memory ops     %d (%.1f%%)\n", s.MemOps, 100*float64(s.MemOps)/float64(s.Instructions))
	fmt.Printf("stores         %d\n", s.Stores)
	fmt.Printf("dependent lds  %d\n", s.DepLoads)
	fmt.Printf("mispredicts    %d\n", s.Mispredicts)
	fmt.Printf("unique blocks  %d (%.1f MB footprint touched)\n",
		s.UniqueBlocks, float64(s.UniqueBlocks)*64/1024/1024)
}

func doReplay(path, designName string, warmN, runN uint64, metricsPath string) {
	r := open(path)
	var c l2.Instrumented
	for _, d := range tlc.Designs() {
		if strings.EqualFold(d.String(), designName) {
			c = tlc.Build(d, tlc.Options{})
		}
	}
	if c == nil {
		fatal("unknown design %q", designName)
	}
	core := cpu.New(config.DefaultSystem(), c)
	core.RegisterMetrics(c.Metrics())
	core.Warm(r, warmN)
	res := core.Run(r, runN)
	st := c.L2Stats()
	fmt.Printf("design        %s\n", designName)
	fmt.Printf("instructions  %d\n", res.Instructions)
	fmt.Printf("cycles        %d (IPC %.3f)\n", res.Cycles, res.IPC())
	fmt.Printf("L2 loads      %d, stores %d\n", st.Loads.Value(), st.Stores.Value())
	fmt.Printf("misses/1K     %.3f\n", st.MissesPer1K(res.Instructions))
	fmt.Printf("mean lookup   %.2f cycles (%.1f%% predictable)\n",
		st.Lookup.Mean(), st.PredictablePct())
	if metricsPath != "" {
		w := os.Stdout
		if metricsPath != "-" {
			f, err := os.Create(metricsPath)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
			w = f
		}
		if err := c.Metrics().Snapshot(res.Cycles).WriteJSON(w); err != nil {
			fatal("metrics: %v", err)
		}
	}
}

func open(path string) *trace.Reader {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal("%v", err)
	}
	return r
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
