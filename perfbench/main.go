// Command perfbench is the repository's benchmark. It runs one workload —
// the paper's design × benchmark grid with full detailed timing
// (paper-grid), the same grid phase-sampled (phase-grid), the grid as 2-core
// CMPs (cmp-grid), or an in-process tlcd under closed-loop client load
// (serve-mix) — checks every output against committed references, and
// prints the metrics as one JSON line:
//
//	perfbench -workload paper-grid -seed 1 -seconds 20 -trace 0
//
// -seed makes the inputs the program receives: the order in which grid
// cells are submitted and the request draw of serve-mix. -workload-seed is
// the simulation seed; references are committed for seeds 1 (the default)
// and 2 (held out). With -trace 1 the run first measures one untraced unit,
// then a traced one (spans, CPU profile, runtime metrics), and prints the
// per-layer metrics plus the tracing overhead. README.md in this directory
// describes the workloads and the metric → module → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload     string
	seed         int64
	workloadSeed int64
	seconds      int
	trace        bool
	refsDir      string
	outDir       string
	writeRefs    bool
}

// workers bounds simulation workers and client connections in every
// workload: the sandbox the benchmark is sized for has two cores.
const workers = 2

// setupReps is how many times a run builds a workload's cold state; setup_s
// is their median. Builds are split between the start of the run, whose
// last build is measured, and its end, so a burst of host noise at one of
// the two moments cannot move the median on its own.
const setupReps = 21

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&c.seed, "seed", 1, "input seed: grid cell order and serve-mix request draw")
	fs.Int64Var(&c.workloadSeed, "workload-seed", 1, "simulation seed (references exist for 1 and 2)")
	fs.IntVar(&c.seconds, "seconds", 20, "measurement budget: whole units run until this many seconds have elapsed")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced unit")
	fs.StringVar(&c.refsDir, "refs", "perfbench/refs", "reference directory")
	fs.StringVar(&c.outDir, "out", ".bench_build/out", "directory for profiles, span dumps and checkpoint directories")
	fs.BoolVar(&c.writeRefs, "write-refs", false, "regenerate the workload's reference file for -workload-seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = trace == 1
	w, ok := workloadByName(c.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", c.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if c.writeRefs {
		if w.writeRefs == nil {
			fmt.Fprintf(stderr, "perfbench: %s has no reference file of its own\n", w.name)
			return 2
		}
		if err := w.writeRefs(&c); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	rep, err := measure(&c, w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	line, err := json.Marshal(rep.result(c.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs the workload and gathers the report: cold-state builds
// timed for setup_s around the measured units.
func measure(c *config, w *workload) (*report, error) {
	rep := &report{cfg: c, w: w}
	var u unit
	for i := 0; i <= setupReps/2; i++ {
		if u != nil {
			u.close()
		}
		var err error
		if u, err = rep.timedSetup(); err != nil {
			return nil, err
		}
	}
	if err := rep.measureUnits(u); err != nil {
		return nil, err
	}
	if c.trace {
		if err := rep.measureTraced(); err != nil {
			return nil, err
		}
	}
	for len(rep.setups) < setupReps {
		u, err := rep.timedSetup()
		if err != nil {
			return nil, err
		}
		u.close()
	}
	return rep, nil
}

// measureUnits measures whole units from the cold state u onwards until
// -seconds have elapsed; a traced invocation measures one, to compare with
// its traced unit.
func (rep *report) measureUnits(u unit) error {
	c, w := rep.cfg, rep.w
	budget := time.Duration(c.seconds) * time.Second
	began := time.Now()
	for {
		o, err := runUnit(u, nil)
		u.close()
		if err != nil {
			return err
		}
		rep.units = append(rep.units, o)
		if c.trace || time.Since(began) >= budget {
			break
		}
		if u, err = w.setup(c); err != nil {
			return err
		}
	}
	return nil
}

// measureTraced measures one traced unit: spans, a CPU profile split by
// module, and the runtime counters.
func (rep *report) measureTraced() error {
	c, w := rep.cfg, rep.w
	u, err := w.setup(c)
	if err != nil {
		return err
	}
	tr := newTracer()
	base := filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d", w.name, c.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		u.close()
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		u.close()
		return err
	}
	o, err := runUnit(u, tr)
	pprof.StopCPUProfile()
	u.close()
	if err != nil {
		return err
	}
	if err := prof.Close(); err != nil {
		return err
	}
	self, err := moduleSelfTimes(prof.Name())
	if err != nil {
		return err
	}
	if err := tr.writeSpans(base + ".spans.json"); err != nil {
		return err
	}
	rep.traced = &tracedUnit{o: o, tr: tr, self: self}
	return nil
}

// timedSetup builds the workload's cold state once, recording how long
// the build took.
func (rep *report) timedSetup() (unit, error) {
	t0 := time.Now()
	u, err := rep.w.setup(rep.cfg)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", rep.w.name, err)
	}
	rep.setups = append(rep.setups, time.Since(t0))
	return u, nil
}

// runUnit measures one unit, with the runtime counters read around it.
func runUnit(u unit, tr *tracer) (*outcome, error) {
	before := readRuntime()
	o, err := u.run(tr)
	if err != nil {
		return nil, err
	}
	o.runtime = readRuntime().sub(before)
	o.peakRSSMB, err = peakRSSMB()
	if err != nil {
		return nil, err
	}
	return o, nil
}

// report is everything one invocation measured.
type report struct {
	cfg    *config
	w      *workload
	setups []time.Duration
	units  []*outcome
	traced *tracedUnit
}

// tracedUnit is the traced measurement of a -trace 1 invocation.
type tracedUnit struct {
	o    *outcome
	tr   *tracer
	self map[string]float64
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the last output line: the end-to-end metrics, or with
// trace the per-layer ones. Operation counts cover every measured unit.
func (r *report) result(trace bool) resultLine {
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, o := range r.measured() {
		line.Attempted += o.attempted
		line.Failed += len(o.failures)
	}
	line.Correct = line.Failed == 0
	var src map[string]float64
	var defs []metricDef
	if trace {
		src, defs = r.perLayer(), perLayerMetrics
	} else {
		src, defs = r.endToEnd(), endToEndMetrics
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: src[d.name], Unit: d.unit}
	}
	return line
}

// measured lists every measured unit, the traced one last.
func (r *report) measured() []*outcome {
	if r.traced == nil {
		return r.units
	}
	return append(r.units[:len(r.units):len(r.units)], r.traced.o)
}

// endToEnd computes the end-to-end metrics: medians over measured units.
func (r *report) endToEnd() map[string]float64 {
	pick := func(f func(o *outcome) float64) float64 {
		vs := make([]float64, len(r.units))
		for i, o := range r.units {
			vs[i] = f(o)
		}
		return median(vs)
	}
	return map[string]float64{
		"setup_s":     median(seconds(r.setups)),
		"wall_s":      pick(func(o *outcome) float64 { return o.wall.Seconds() }),
		"peak_rss_mb": pick(func(o *outcome) float64 { return o.peakRSSMB }),
		"req_per_s":   pick(func(o *outcome) float64 { return float64(len(o.latencies)) / o.wall.Seconds() }),
		"req_p50_ms":  pick(func(o *outcome) float64 { return percentile(millis(o.latencies), 50) }),
		"req_tail_ms": pick(func(o *outcome) float64 { return percentile(millis(o.latencies), tailPercentile(len(o.latencies))) }),
	}
}

// perLayer computes the per-layer metrics from the traced unit: exact
// counts, spans, module self times, runtime counters, and the tracing
// overhead against the untraced unit of the same invocation.
func (r *report) perLayer() map[string]float64 {
	t := r.traced
	out := map[string]float64{}
	for k, v := range t.o.counts {
		out[k] = v
	}
	for k, v := range t.self {
		out[k] = v
	}
	cells := millis(t.tr.durations("experiments.cell"))
	if len(cells) > 0 {
		out["experiments.cell_p50_ms"] = percentile(cells, 50)
		out["experiments.cell_p85_ms"] = percentile(cells, 85)
	}
	out["experiments.lane_warm_s"] = sum(seconds(t.tr.durations("experiments.lane_warm")))
	if h := millis(t.tr.durations("server.handler")); len(h) > 0 {
		out["server.handler_p50_ms"] = percentile(h, 50)
		out["server.handler_p99_ms"] = percentile(h, 99)
	}
	out["server.hit_p50_ms"] = t.o.extra["hit_p50_ms"]
	out["server.exec_p50_ms"] = t.o.extra["exec_p50_ms"]
	out["runtime.gc_cpu_s"] = t.o.runtime.gcCPU
	out["runtime.gc_cycles"] = t.o.runtime.gcCycles
	plain := r.units[len(r.units)-1].wall.Seconds()
	out["trace.untraced_wall_s"] = plain
	out["trace.traced_wall_s"] = t.o.wall.Seconds()
	out["trace.overhead_pct"] = 100 * (t.o.wall.Seconds() - plain) / plain
	return out
}

// print writes the human-readable report: every timing as a median and its
// named tail with the sample count, failures by name, and the workload's
// own figures (accuracy, hit and execution latency).
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s  seed %d  workload-seed %d  units %d\n", r.w.name, r.cfg.seed, r.cfg.workloadSeed, len(r.units))
	fmt.Fprintf(w, "  setup      median %.4f s over %d set-ups\n", median(seconds(r.setups)), len(r.setups))
	all := r.measured()
	for i, o := range all {
		label := fmt.Sprintf("unit %d", i+1)
		if r.traced != nil && i == len(all)-1 {
			label = "traced"
		}
		fmt.Fprintf(w, "  %-9s  wall %.3f s  peak RSS %.0f MB  failed %d of %d %s\n",
			label, o.wall.Seconds(), o.peakRSSMB, len(o.failures), o.attempted, r.w.opNoun)
		printLatency(w, "    "+r.w.opNoun, o.latencies)
		printLatency(w, "    hits", o.hits)
		printLatency(w, "    executions", o.execs)
		keys := make([]string, 0, len(o.extra))
		for k := range o.extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "    %-22s %.4f\n", k, o.extra[k])
		}
		for j, f := range o.failures {
			if j == 10 {
				fmt.Fprintf(w, "    ... %d more failures\n", len(o.failures)-j)
				break
			}
			fmt.Fprintf(w, "    FAILED %s\n", f)
		}
	}
	if r.traced != nil {
		pl := r.perLayer()
		for _, d := range perLayerMetrics {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, pl[d.name], d.unit)
		}
	}
}

// printLatency prints one latency sample set as median, named tail and
// sample count; empty sets print nothing.
func printLatency(w io.Writer, label string, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	ms := millis(ds)
	p := tailPercentile(len(ms))
	fmt.Fprintf(w, "%-16s p50 %.3f ms  p%g %.3f ms  n=%d\n", label, percentile(ms, 50), p, percentile(ms, p), len(ms))
}
