// Command tlcbench runs the evaluation grid and emits the headline metrics
// as JSON (the BENCH_*.json trajectory format): per-run records plus the
// paper's aggregate comparisons and the harness's own performance
// (wall-clock per run, total simulation time, parallel speedup basis).
//
//	tlcbench                      # 3-design x 12-benchmark headline grid
//	tlcbench -full                # all 6 designs
//	tlcbench -quick               # reduced scale (200 K timed instructions)
//	tlcbench -par 8 -out bench.json
//	tlcbench -ckptdir ~/.tlc-ckpt -sample 50  # warm-skip + sampled detail
//	tlcbench -cpuprofile cpu.pprof -memprofile mem.pprof
//	tlcbench -out b.json -diff-against prev.json  # metric drift vs last artifact
//
// Each run record embeds its full metric-registry snapshot, so the artifact
// carries every counter, gauge, and histogram the simulation layers
// registered; -diff-against reports which of them moved since a previous
// artifact (empty for a pure refactor).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/cliopt"
	"tlc/internal/experiments"
	"tlc/internal/stats"
)

// record is one completed run's headline metrics plus its full
// metric-registry snapshot, so the trajectory artifact carries every
// counter, gauge, and histogram the simulation layers registered and any
// metric can be diffed across commits (-diff-against). The schema is shared
// with the tlcd service (internal/api): a served run record and a CLI
// artifact record are interchangeable JSON — the service-only fields simply
// stay empty here.
type record = api.RunRecord

// document is the emitted JSON shape.
type document struct {
	TimedInstructions uint64             `json:"timed_instructions"`
	Seed              int64              `json:"seed"`
	Par               int                `json:"par"`
	SampleIntervals   int                `json:"sample_intervals,omitempty"`
	SampleLength      uint64             `json:"sample_length,omitempty"`
	PhaseWindows      int                `json:"phase_windows,omitempty"`
	PhaseClusters     int                `json:"phase_clusters,omitempty"`
	Runs              []record           `json:"runs"`
	Headline          map[string]float64 `json:"headline"`
	SimulatedRuns     uint64             `json:"simulated_runs"`
	SimWallMS         float64            `json:"sim_wall_ms"`
	ElapsedMS         float64            `json:"elapsed_ms"`
	Lanes             *laneStatsJSON     `json:"lanes,omitempty"`
}

// laneStatsJSON is the lane phase's share of the grid (the
// sim.lanes.* spine, aggregated): present only when the lane phase was
// enabled, zero-valued when it ran but nothing grouped.
type laneStatsJSON struct {
	Groups        uint64 `json:"groups"`
	LanesWarmed   uint64 `json:"lanes_warmed"`
	BatchesShared uint64 `json:"batches_shared"`
	ScalarPoints  uint64 `json:"scalar_points"`
	// WarmWallMS is the summed wall-clock of the lane passes' warm halves
	// (shared warm-up or checkpoint restore); their timed halves are in
	// sim_wall_ms, one share per run. The artifact's total simulation cost
	// is sim_wall_ms + warm_wall_ms — the figure to hold against a scalar
	// artifact's sim_wall_ms.
	WarmWallMS float64 `json:"warm_wall_ms"`
}

func main() {
	full := flag.Bool("full", false, "all six designs (default: SNUCA2, DNUCA, TLC)")
	quick := flag.Bool("quick", false, "reduced scale (200K timed instructions)")
	par := flag.Int("par", runtime.NumCPU(), "simulation parallelism")
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("out", "", "output file (default stdout)")
	diffAgainst := flag.String("diff-against", "",
		"previous artifact to diff the embedded metrics against (report on stderr)")
	diffFatal := flag.Bool("diff-fatal", false,
		"exit non-zero if -diff-against reports any changed metric "+
			"(the lane-vs-scalar equivalence gate)")
	diffTol := flag.Float64("tol", 0,
		"relative tolerance for -diff-against: values within |a-b| <= tol*max(|a|,|b|) "+
			"count as unchanged (0 = exact equality, the equivalence-gate default; "+
			"accuracy gates comparing phase-sampled vs uniform artifacts pass e.g. 0.03)")
	diffHead := flag.Bool("diff-headline", false,
		"with -diff-against: compare each run's full-run cycle estimates (cycles, ipc) "+
			"instead of the embedded registry snapshots — the cross-execution-mode "+
			"accuracy gate (a sampled artifact's raw registry counters cover only its "+
			"detailed fraction, so they are not comparable against a full run's)")
	lanes := flag.Bool("lanes", true,
		"lane phase: share each benchmark's stream and L1 across all designs, "+
			"warm-up and (full-detail, one-core runs) timed region alike (an "+
			"in-memory checkpoint store is used when -ckptdir is unset); "+
			"-lanes=false measures the scalar baseline")
	cpuprofile := flag.String("cpuprofile", "",
		"write a CPU profile of the simulation region to this file "+
			"(covers only the run sweep — setup, JSON encoding, and metric diffing are excluded)")
	memprofile := flag.String("memprofile", "", "write a post-sweep heap profile to this file")
	accel := cliopt.Register()
	flag.Parse()

	opt := tlc.DefaultOptions()
	opt.Seed = *seed
	if *quick {
		opt.RunInstructions = 200_000
		opt.WarmInstructions = 2_000_000
	}
	if err := accel.Apply(&opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}
	if *full {
		designs = tlc.Designs()
	}
	benches := tlc.Benchmarks()

	if *lanes && opt.Checkpoints == nil {
		// The lane phase carries warm state to the runs through a checkpoint
		// store; without -ckptdir an in-memory one scoped to this invocation
		// serves. Sized to the grid: the default capacity (64) is smaller
		// than the full 6x12 grid, and LRU eviction between the warm phase
		// and the runs would silently re-warm the evicted points scalar.
		opt.Checkpoints = tlc.NewCheckpointStore(len(designs)*len(benches), "")
	}

	s := experiments.NewSuite(opt)
	s.NoLanes = !*lanes
	var mu sync.Mutex
	wall := make(map[string]time.Duration)
	s.OnRun = func(ev experiments.RunEvent) {
		mu.Lock()
		wall[ev.Design.String()+"/"+ev.Benchmark] = ev.Wall
		mu.Unlock()
	}

	// The CPU profile brackets exactly the simulation region, so the
	// resulting profile answers "where does simulation time go" without
	// startup, artifact encoding, or diffing noise diluting it.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	start := time.Now()
	err := s.RunAll(designs, benches, *par)
	elapsed := time.Since(start)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	accel.WarnDisk(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	doc := document{
		TimedInstructions: opt.RunInstructions,
		Seed:              opt.Seed,
		Par:               *par,
		SampleIntervals:   opt.SampleIntervals,
		SampleLength:      opt.SampleLength,
		PhaseWindows:      opt.PhaseWindows,
		PhaseClusters:     opt.PhaseClusters,
		Headline:          map[string]float64{},
		ElapsedMS:         float64(elapsed.Microseconds()) / 1000,
	}
	m := s.Metrics()
	doc.SimulatedRuns = m.Simulated
	doc.SimWallMS = float64(m.SimWall.Microseconds()) / 1000
	if *lanes {
		doc.Lanes = &laneStatsJSON{
			Groups:        m.LaneGroups,
			LanesWarmed:   m.LanesWarmed,
			BatchesShared: m.LaneBatches,
			ScalarPoints:  m.LaneScalarPoints,
			WarmWallMS:    float64(m.LaneWall.Microseconds()) / 1000,
		}
	}

	norm := map[tlc.Design]*stats.Series{}
	for _, d := range designs {
		norm[d] = &stats.Series{Name: d.String()}
	}
	for _, d := range designs {
		for _, b := range benches {
			r := s.Run(d, b)
			var sres *tlc.SampledResult
			if s.Sampled() {
				sr, err := s.SampledErr(d, b)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				sres = &sr
			}
			snap, _ := s.RunMetrics(d, b)
			wallMS := float64(wall[d.String()+"/"+b].Microseconds()) / 1000
			doc.Runs = append(doc.Runs, api.RecordFrom(r, sres, snap, wallMS))
			base := float64(s.Run(tlc.DesignSNUCA2, b).Cycles)
			norm[d].Append(b, float64(r.Cycles)/base)
		}
	}

	// The Figure 5/8 headline: normalized execution time geomeans.
	for _, d := range designs {
		doc.Headline["norm_exec_geomean_"+d.String()] = norm[d].GeoMean()
	}
	// Harness performance headline for the trajectory.
	if m.Simulated > 0 {
		doc.Headline["mean_run_wall_ms"] = doc.SimWallMS / float64(m.Simulated)
	}
	if elapsed > 0 {
		// Summed per-run wall-clock over elapsed time: the parallel
		// overlap factor. With free cores this equals the wall-clock
		// speedup over a serial sweep.
		doc.Headline["parallel_overlap"] = float64(m.SimWall) / float64(elapsed)
	}
	var prev *document
	if *diffAgainst != "" {
		prev, err = readArtifact(*diffAgainst)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Record the sweep-level wall speedup in the artifact itself: total
		// simulation cost — runs plus any shared warm passes — against the
		// previous artifact's. A lane-phased sweep diffed against a scalar
		// one captures exactly what lane grouping saved.
		cost := doc.SimWallMS
		if doc.Lanes != nil {
			cost += doc.Lanes.WarmWallMS
		}
		prevCost := prev.SimWallMS
		if prev.Lanes != nil {
			prevCost += prev.Lanes.WarmWallMS
		}
		if cost > 0 && prevCost > 0 {
			doc.Headline["sim_wall_speedup_vs_prev"] = prevCost / cost
		}
	}
	sortRecords(doc.Runs)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if prev != nil {
		if *diffTol < 0 {
			fmt.Fprintf(os.Stderr, "tlcbench: -tol %g: tolerance must be non-negative\n", *diffTol)
			os.Exit(2)
		}
		var changed int
		if *diffHead {
			changed, _ = diffHeadline(*diffAgainst, *prev, doc, *diffTol, os.Stderr)
		} else {
			changed, _ = diffMetrics(*diffAgainst, *prev, doc, *diffTol, os.Stderr)
		}
		if *diffFatal && changed > 0 {
			fmt.Fprintf(os.Stderr, "tlcbench: -diff-fatal: %d metrics changed vs %s\n",
				changed, *diffAgainst)
			os.Exit(1)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // report retained allocations, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// diffMetrics compares every embedded metric of the current artifact with a
// previous one and reports changed values on w. It is the CI trajectory
// check: after a pure-refactor commit the diff must be empty, and after a
// modeling change it names exactly which counters moved. A previous
// artifact without embedded metrics (or with a different grid) diffs only
// the intersection.
//
// tol relaxes the comparison to a symmetric relative tolerance — values
// within |a-b| <= tol*max(|a|,|b|) count as unchanged — for accuracy gates
// that compare estimates against a different execution mode (phase-sampled
// vs uniform). Equivalence gates (lane-vs-scalar, cache-hit-vs-recompute)
// keep tol 0: bit-identical modes must diff exactly.
//
// The comparison is fully order-independent: runs match by (design,
// benchmark) key and metrics by name, never by position. A served artifact
// (tlcd emits records in completion order) or one whose metrics array was
// reassembled out of sorted order diffs identically to a freshly sorted
// one — in particular, Snapshot.Value's sorted-order binary search is NOT
// used on the deserialized previous artifact, which carries no ordering
// guarantee.
func diffMetrics(path string, prev, cur document, tol float64, w io.Writer) (changed, compared int) {
	prevRuns := make(map[string]map[string]float64, len(prev.Runs))
	for _, r := range prev.Runs {
		vals := make(map[string]float64, len(r.Metrics))
		for _, m := range r.Metrics {
			vals[m.Name] = m.Value
		}
		prevRuns[r.Design+"/"+r.Benchmark] = vals
	}

	for _, r := range cur.Runs {
		p, ok := prevRuns[r.Design+"/"+r.Benchmark]
		if !ok || len(p) == 0 || len(r.Metrics) == 0 {
			continue
		}
		for _, m := range r.Metrics {
			old, ok := p[m.Name]
			if !ok {
				continue
			}
			compared++
			if metricChanged(old, m.Value, tol) {
				changed++
				fmt.Fprintf(w, "metric %s/%s %s: %g -> %g\n",
					r.Design, r.Benchmark, m.Name, old, m.Value)
			}
		}
	}
	fmt.Fprintf(w, "metrics diff vs %s: %d of %d values changed\n",
		path, changed, compared)
	return changed, compared
}

// diffHeadline compares each run's headline cycle estimates — cycles and
// ipc — between artifacts, matching runs by (design, benchmark) like
// diffMetrics. It is the cross-execution-mode accuracy gate: a sampled or
// phase-sampled artifact's embedded registry counters cover only the
// detailed fraction of each run (not comparable to a full artifact's), but
// its cycles and ipc are full-run estimates, so they diff meaningfully
// against a full artifact under -tol. The rate estimates (mean lookup,
// misses/1K) are deliberately excluded: they carry their own confidence
// intervals in the artifact and are not part of the ±tolerance contract.
func diffHeadline(path string, prev, cur document, tol float64, w io.Writer) (changed, compared int) {
	prevRuns := make(map[string]record, len(prev.Runs))
	for _, r := range prev.Runs {
		prevRuns[r.Design+"/"+r.Benchmark] = r
	}
	for _, r := range cur.Runs {
		p, ok := prevRuns[r.Design+"/"+r.Benchmark]
		if !ok {
			continue
		}
		for _, f := range []struct {
			name     string
			old, new float64
		}{
			{"cycles", float64(p.Cycles), float64(r.Cycles)},
			{"ipc", p.IPC, r.IPC},
		} {
			compared++
			if metricChanged(f.old, f.new, tol) {
				changed++
				fmt.Fprintf(w, "headline %s/%s %s: %g -> %g\n",
					r.Design, r.Benchmark, f.name, f.old, f.new)
			}
		}
	}
	fmt.Fprintf(w, "headline diff vs %s: %d of %d values changed\n",
		path, changed, compared)
	return changed, compared
}

// metricChanged reports whether two metric values differ beyond the
// relative tolerance. tol 0 degenerates to exact inequality (a NaN — which
// no registry metric produces — would then always read as changed, the
// conservative direction for a gate).
func metricChanged(old, new, tol float64) bool {
	if old == new {
		return false
	}
	if tol == 0 {
		return true
	}
	scale := math.Abs(old)
	if a := math.Abs(new); a > scale {
		scale = a
	}
	return math.Abs(new-old) > tol*scale
}

// readArtifact loads and parses a previous trajectory artifact.
func readArtifact(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("tlcbench: -diff-against: no previous artifact at %s", path)
	}
	if err != nil {
		return nil, fmt.Errorf("tlcbench: -diff-against: cannot read %s: %v", path, err)
	}
	var prev document
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil, fmt.Errorf("tlcbench: -diff-against: %s is not a tlcbench artifact: %v", path, err)
	}
	return &prev, nil
}

// sortRecords keeps the emitted order stable regardless of execution order.
func sortRecords(rs []record) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Design != rs[j].Design {
			return rs[i].Design < rs[j].Design
		}
		return rs[i].Benchmark < rs[j].Benchmark
	})
}
