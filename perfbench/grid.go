package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlc"
	"tlc/internal/cliopt"
	"tlc/internal/experiments"
	"tlc/internal/snapshot"
)

// outcome is what one measured unit of a workload produced.
type outcome struct {
	wall      time.Duration
	attempted int
	// failures names every operation whose output did not match its
	// reference, or that returned an error.
	failures []string
	// latencies holds one sample per operation (grid cell or request);
	// hits and execs split serve-mix requests by how they were served.
	latencies   []time.Duration
	hits, execs []time.Duration
	// counts are the exact per-layer counts, summed over the unit.
	counts map[string]float64
	// extra holds workload-specific figures for the text report.
	extra     map[string]float64
	runtime   runtimeCounters
	peakRSSMB float64
}

// unit is one cold instance of a workload, built by its setup.
type unit interface {
	run(tr *tracer) (*outcome, error)
	close()
}

// workload is one benchmark workload; README.md and BENCHMARK.json give the
// reason each exists.
type workload struct {
	name string
	// opNoun names an operation in the report: a grid cell or a request.
	opNoun    string
	setup     func(c *config) (unit, error)
	writeRefs func(c *config) error
}

func workloads() []*workload {
	return []*workload{
		gridWorkload(paperGrid),
		gridWorkload(phaseGrid),
		gridWorkload(cmpGrid),
		serveWorkload(),
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// gridSpec is one of the three grid workloads.
type gridSpec struct {
	name string
	// options builds the run options with fresh, cold stores.
	options func(workloadSeed int64) tlc.Options
	// refs names the workload whose reference file checks this one.
	refs string
}

var (
	paperGrid = &gridSpec{
		name: "paper-grid",
		refs: "paper-grid",
		options: func(ws int64) tlc.Options {
			opt := tlc.DefaultOptions()
			opt.Seed = ws
			// Sized to the grid: the default capacity (64) would evict
			// lane-warmed checkpoints before their cells restore them.
			opt.Checkpoints = tlc.NewCheckpointStore(gridCells, "")
			return opt
		},
	}
	phaseGrid = &gridSpec{
		name: "phase-grid",
		refs: "paper-grid",
		options: func(ws int64) tlc.Options {
			opt := paperGrid.options(ws)
			opt.PhaseWindows = cliopt.DefaultPhaseWindows
			opt.PhaseClusters = cliopt.DefaultPhaseClusters
			opt.SampleLength = 2000 // the CLIs' -samplelen default
			opt.PhaseProfiles = tlc.NewPhaseProfileStore(0, "")
			return opt
		},
	}
	cmpGrid = &gridSpec{
		name: "cmp-grid",
		refs: "cmp-grid",
		options: func(ws int64) tlc.Options {
			opt := tlc.DefaultOptions()
			opt.Seed = ws
			opt.WarmInstructions = 2_000_000
			opt.RunInstructions = 200_000
			opt.Cores = 2
			opt.Sharing = tlc.SharingSpec{Pattern: "producer-consumer"}
			return opt
		},
	}
)

// gridCells is the paper's design x benchmark grid size.
var gridCells = len(tlc.Designs()) * len(tlc.Benchmarks())

// phaseTolerancePct is the phase-sampled accuracy contract: every cell
// within ±3% of its full-detail cycles.
const phaseTolerancePct = 3.0

func gridWorkload(g *gridSpec) *workload {
	w := &workload{
		name:   g.name,
		opNoun: "cells",
		setup: func(c *config) (unit, error) {
			u, err := newGridUnit(g, c, true)
			if err != nil {
				return nil, err
			}
			return u, nil
		},
	}
	if g.refs == g.name {
		w.writeRefs = func(c *config) error { return writeGridRefs(g, c) }
	}
	return w
}

// gridUnit is one cold grid: a fresh suite and stores, the grid's points,
// the seed's order of handing them to the workers, and the references that
// check them.
type gridUnit struct {
	g      *gridSpec
	suite  *experiments.Suite
	points []experiments.GridPoint
	order  []int
	refs   *refFile
}

func newGridUnit(g *gridSpec, c *config, withRefs bool) (*gridUnit, error) {
	u := &gridUnit{g: g}
	if withRefs {
		var err error
		if u.refs, err = loadRefs(c.refsDir, g.refs, c.workloadSeed); err != nil {
			return nil, err
		}
	}
	u.suite = experiments.NewSuite(g.options(c.workloadSeed))
	for _, d := range tlc.Designs() {
		for _, b := range tlc.Benchmarks() {
			u.points = append(u.points, experiments.GridPoint{Design: d, Bench: b, Opt: u.suite.Opt})
		}
	}
	// The lane phase plans the grid in its canonical order; the seed orders
	// only the cells handed to the workers.
	u.order = rand.New(rand.NewSource(c.seed)).Perm(len(u.points))
	return u, nil
}

func (u *gridUnit) close() {}

func cellName(d tlc.Design, bench string) string { return d.String() + "/" + bench }

// cellResult is one executed cell.
type cellResult struct {
	res      tlc.Result
	detailed uint64
	err      error
	wall     time.Duration
}

// execute runs the grid: the lane warm phase, then the cells in the seed's
// order on the worker pool. It returns the results by point index and the
// wall time.
func (u *gridUnit) execute(tr *tracer) ([]cellResult, time.Duration) {
	root, endRoot := tr.start("workload."+u.g.name, spanRef{})
	defer endRoot()
	start := time.Now()
	_, endWarm := tr.start("experiments.lane_warm", root)
	u.suite.WarmGrid(u.points, workers)
	endWarm()

	out := make([]cellResult, len(u.points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(u.order) {
					return
				}
				i := u.order[n]
				p := u.points[i]
				r := &out[i]
				t0 := time.Now()
				_, end := tr.start("experiments.cell", root)
				if u.suite.Sampled() {
					var sr tlc.SampledResult
					sr, r.err = u.suite.SampledErr(p.Design, p.Bench)
					r.res, r.detailed = sr.Result, sr.DetailedInstructions
				} else {
					r.res, r.err = u.suite.RunErr(p.Design, p.Bench)
				}
				end()
				r.wall = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func (u *gridUnit) run(tr *tracer) (*outcome, error) {
	cells, wall := u.execute(tr)
	o := &outcome{wall: wall, attempted: len(cells), counts: map[string]float64{}, extra: map[string]float64{}}
	var snaps []tlc.MetricsSnapshot
	est := map[string]float64{}
	got := map[string]cellRef{}
	for _, i := range u.order {
		r, p := cells[i], u.points[i]
		op := cellName(p.Design, p.Bench)
		o.latencies = append(o.latencies, r.wall)
		if r.err != nil {
			o.failures = append(o.failures, fmt.Sprintf("%s: %v", op, r.err))
			continue
		}
		snap, _ := u.suite.RunMetrics(p.Design, p.Bench)
		snaps = append(snaps, snap)
		if u.suite.Sampled() {
			o.counts["cpu.timed_instructions"] += float64(r.detailed)
			o.counts["sample.detailed_instructions"] += float64(r.detailed)
			est[op] = float64(r.res.Cycles)
			continue
		}
		o.counts["cpu.timed_instructions"] += float64(r.res.Instructions)
		got[op] = cellRef{Cycles: r.res.Cycles, IPC: r.res.IPC, Digest: digest(snap)}
	}
	o.failures = append(o.failures, u.refs.verify(got)...)
	if u.suite.Sampled() {
		acc := accuracy(est, u.refs)
		o.failures = append(o.failures, acc.failures...)
		for k, v := range map[string]float64{
			"cycles_err_max_pct":  acc.maxPct,
			"cycles_err_mean_pct": acc.meanPct,
			"rank_inversions":     float64(acc.inversions),
		} {
			o.counts[k] = v
			o.extra[k] = v
		}
	}
	sumRegistry(o.counts, snaps)
	m := u.suite.Metrics()
	o.counts["experiments.simulated"] = float64(m.Simulated)
	o.counts["sim.lanes.batches_shared"] = float64(m.LaneBatches)
	o.counts["sim.lanes.lanes_warmed"] = float64(m.LanesWarmed)
	o.counts["sim.lanes.scalar_points"] = float64(m.LaneScalarPoints)
	if ck := u.suite.Opt.Checkpoints; ck != nil {
		snapshotCounts(o.counts, ck.Stats())
	}
	if pr := u.suite.Opt.PhaseProfiles; pr != nil {
		st := pr.Stats()
		o.counts["sample.profiles.hits"] = float64(st.Hits)
		o.counts["sample.profiles.misses"] = float64(st.Misses)
		o.counts["sample.profiles.puts"] = float64(st.Puts)
	}
	return o, nil
}

// registryCounts are the registry counters reported per layer, summed over
// every executed run of a unit.
var registryCounts = []string{
	"workload.mem_ops",
	"cpu.l1d.hits", "cpu.l1d.misses",
	"cpu.rob.stalls", "cpu.sched.stalls", "cpu.mshr.waits", "cpu.fetch.mispredicts",
	"l2.loads", "l2.misses", "l2.searches", "l2.promotions", "l2.bank_busy_cycles",
	"noc.messages", "tl.up_flits", "tl.down_flits",
	"sample.phase.windows", "sample.phase.clusters", "sample.phase.profile_cached",
	"coh.busrd", "coh.busrdx", "coh.invalidations", "coh.downgrades",
	"cmp.arb.delayed", "cmp.arb.delay_cycles",
}

// sumRegistry adds the registryCounts of every snapshot into counts.
func sumRegistry(counts map[string]float64, snaps []tlc.MetricsSnapshot) {
	for _, snap := range snaps {
		for _, name := range registryCounts {
			if v, ok := snap.Value(name); ok {
				counts[name] += v
			}
		}
	}
}

// snapshotCounts records checkpoint-store traffic.
func snapshotCounts(counts map[string]float64, st snapshot.Stats) {
	counts["snapshot.hits"] = float64(st.Hits)
	counts["snapshot.disk_hits"] = float64(st.DiskHits)
	counts["snapshot.misses"] = float64(st.Misses)
	counts["snapshot.puts"] = float64(st.Puts)
	if st.Hits+st.Misses > 0 {
		counts["snapshot.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
}

// accuracyReport compares sampled cycle estimates with full-detail
// references.
type accuracyReport struct {
	maxPct, meanPct float64
	// inversions counts design pairs, per benchmark, whose order in the
	// estimate's ranking differs from the reference ranking's (15 pairs x
	// 12 benchmarks = 180).
	inversions int
	failures   []string
}

func accuracy(est map[string]float64, refs *refFile) accuracyReport {
	var a accuracyReport
	n := 0
	for _, d := range tlc.Designs() {
		for _, b := range tlc.Benchmarks() {
			op := cellName(d, b)
			e, ok := est[op]
			if !ok {
				continue
			}
			ref := float64(refs.Cells[op].Cycles)
			pct := 100 * math.Abs(e-ref) / ref
			a.maxPct = math.Max(a.maxPct, pct)
			a.meanPct += pct
			n++
			if !(pct <= phaseTolerancePct) {
				a.failures = append(a.failures, fmt.Sprintf("%s: estimate %.0f cycles is %.2f%% from the full-detail %d", op, e, pct, refs.Cells[op].Cycles))
			}
		}
	}
	if n > 0 {
		a.meanPct /= float64(n)
	}
	for _, b := range tlc.Benchmarks() {
		a.inversions += inversions(ranking(b, est), ranking(b, refCycles(refs)))
	}
	return a
}

// ranking orders the designs of benchmark b by cycles, fewest first; ties
// keep the designs' enumeration order (SNUCA2, DNUCA, TLC, TLCopt1000,
// TLCopt500, TLCopt350), as Figure 5 lists them. Designs without a value are
// left out.
func ranking(b string, cycles map[string]float64) []tlc.Design {
	var ds []tlc.Design
	for _, d := range tlc.Designs() {
		if _, ok := cycles[cellName(d, b)]; ok {
			ds = append(ds, d)
		}
	}
	sort.Slice(ds, func(i, j int) bool {
		ci, cj := cycles[cellName(ds[i], b)], cycles[cellName(ds[j], b)]
		if ci != cj {
			return ci < cj
		}
		return ds[i] < ds[j]
	})
	return ds
}

// inversions counts the design pairs ordered differently by two rankings;
// designs missing from either are skipped.
func inversions(got, want []tlc.Design) int {
	pos := map[tlc.Design]int{}
	for i, d := range want {
		pos[d] = i
	}
	var in []int
	for _, d := range got {
		if p, ok := pos[d]; ok {
			in = append(in, p)
		}
	}
	n := 0
	for i := range in {
		for j := i + 1; j < len(in); j++ {
			if in[i] > in[j] {
				n++
			}
		}
	}
	return n
}

func refCycles(refs *refFile) map[string]float64 {
	out := make(map[string]float64, len(refs.Cells))
	for op, c := range refs.Cells {
		out[op] = float64(c.Cycles)
	}
	return out
}

// writeGridRefs runs the grid once and writes its reference file.
func writeGridRefs(g *gridSpec, c *config) error {
	u, err := newGridUnit(g, c, false)
	if err != nil {
		return err
	}
	cells, _ := u.execute(nil)
	rf := &refFile{Workload: g.name, WorkloadSeed: c.workloadSeed, Cells: map[string]cellRef{}}
	for i, r := range cells {
		p := u.points[i]
		if r.err != nil {
			return fmt.Errorf("%s: %w", cellName(p.Design, p.Bench), r.err)
		}
		snap, _ := u.suite.RunMetrics(p.Design, p.Bench)
		rf.Cells[cellName(p.Design, p.Bench)] = cellRef{Cycles: r.res.Cycles, IPC: r.res.IPC, Digest: digest(snap)}
	}
	return rf.save(c.refsDir)
}
