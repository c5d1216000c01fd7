package experiments

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlc"
	"tlc/internal/workload"
)

// GridPoint is one point of an explicit sweep grid: the full configuration
// of one run. The lane plan (planLanes) consumes grids in this shape;
// executors keep running points however they already do (suites, server
// submits) — the plan only decides which warm-ups can be paid once,
// together.
type GridPoint struct {
	Design tlc.Design
	Bench  string
	Opt    tlc.Options
}

// LaneGroup is one plan entry: the distinct designs of a grid whose points
// share a workload stream — same benchmark, same effective warm seed, same
// warm length, same checkpoint store — so one lane-parallel pass
// (tlc.WarmLanes) warms all of them off a single generator traversal.
// Groups with fewer than two designs gain nothing from sharing; the plan
// counts them as scalar and executors leave those points to scalar warm-up.
type LaneGroup struct {
	Bench   string
	Designs []tlc.Design
	// Opt is a representative option set of the group's points. The fields
	// a lane pass reads (warm plan, checkpoint store, cancellation) are
	// equal across the group by construction; the rest differ per point
	// and are irrelevant to functional warm-up.
	Opt tlc.Options
}

// laneKey is the grouping key: everything that determines whether two grid
// points would consume the identical warm stream into the same store — the
// benchmark and tlc's warm plan for it (effective warm seed and length)
// under a one-core run. The store pointer keys identity, so grids spanning
// stores never share a pass.
type laneKey struct {
	bench    string
	warmSeed int64
	warm     uint64
	store    *tlc.CheckpointStore
}

// planLanes groups points by shared workload stream, in first-occurrence
// order (deterministic for a deterministic grid), and counts the points
// left to scalar warm-up: points that cannot carry a warm-up to their run
// (no checkpoint store) or share none (a CMP machine, which warms one
// stream per core; an unknown benchmark), plus one per group too small to
// share.
func planLanes(points []GridPoint) (groups []LaneGroup, scalar int) {
	idx := make(map[laneKey]int)
	for i := range points {
		pt := &points[i]
		warmSeed, warm, shared := tlc.WarmStream(pt.Bench, pt.Opt)
		if pt.Opt.Checkpoints == nil || !shared {
			scalar++
			continue
		}
		k := laneKey{pt.Bench, warmSeed, warm, pt.Opt.Checkpoints}
		gi, ok := idx[k]
		if !ok {
			gi = len(groups)
			groups = append(groups, LaneGroup{Bench: pt.Bench, Opt: pt.Opt})
			idx[k] = gi
		}
		g := &groups[gi]
		if !containsDesign(g.Designs, pt.Design) {
			g.Designs = append(g.Designs, pt.Design)
		}
	}
	// Lone designs share nothing: their points fall back to scalar
	// warm-up inside their own runs.
	for i := range groups {
		if len(groups[i].Designs) < 2 {
			scalar++
		}
	}
	return groups, scalar
}

func containsDesign(ds []tlc.Design, d tlc.Design) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// laneOrder lists the indices of the shareable groups (two or more
// designs) in dispatch order: costliest first by laneCost, ties in plan
// order. timed reports the groups whose pass also times them (nil: none).
// The workers take groups as they free up, so a costly group started last
// would trail the rest of the lane phase.
func laneOrder(groups []LaneGroup, timed func(*LaneGroup) bool) []int {
	order := make([]int, 0, len(groups))
	cost := make([]float64, len(groups))
	for i := range groups {
		g := &groups[i]
		if len(g.Designs) < 2 {
			continue
		}
		order = append(order, i)
		cost[i] = laneCost(g, timed != nil && timed(g))
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order
}

// Host time per instruction of a lane pass, in nanoseconds, fitted to
// serially timed paper-scale groups of six designs on a 2-vCPU Xeon, with r
// the benchmark's L2 request rate: the shared front end of a warm or
// fast-forward instruction costs warmNS plus installNS·r per lane for the
// spill each lane installs, and a detailed instruction costs timedNS plus
// l2NS·r on each design's back end.
const (
	warmNS    = 22
	installNS = 165
	timedNS   = 19
	l2NS      = 1540
)

// laneCost estimates a group's pass in host nanoseconds: its shared
// warm-up, and for a timed group the timed region too — the fast-forward
// stretches once for all designs and the detailed instructions once per
// design.
func laneCost(g *LaneGroup, timed bool) float64 {
	spec, _ := workload.SpecByName(g.Bench) // planLanes groups known benchmarks only
	r := spec.L2RequestRate()
	k := float64(len(g.Designs))
	_, warm, _ := tlc.WarmStream(g.Bench, g.Opt)
	perWarm := warmNS + installNS*k*r
	cost := float64(warm) * perWarm
	if timed {
		run := g.Opt.RunInstructions
		detailed := min(detailedInstructions(g.Opt), run)
		cost += float64(run-detailed)*perWarm + k*float64(detailed)*(timedNS+l2NS*r)
	}
	return cost
}

// detailedInstructions is how many instructions a run under opt times in
// detail: all of them at full detail, every interval of a uniform plan, and
// at most one window per cluster of a phase plan.
func detailedInstructions(opt tlc.Options) uint64 {
	switch {
	case opt.PhaseWindows > 0:
		return opt.RunInstructions / uint64(opt.PhaseWindows) * uint64(max(opt.PhaseClusters, 0))
	case opt.SampleIntervals > 0:
		return uint64(opt.SampleIntervals) * opt.SampleLength
	}
	return opt.RunInstructions
}

// LaneTally counts what one lane phase absorbed (the sim.lanes.* spine).
type LaneTally struct {
	// Groups counts shared warm passes that warmed at least one lane.
	Groups uint64
	// Lanes counts configurations warmed by shared passes — warm-ups the
	// grid's runs restore instead of re-executing.
	Lanes uint64
	// Batches counts stream batches consumed once on behalf of a whole
	// group, each saved (lanes-1) times over scalar execution.
	Batches uint64
	// ScalarPoints counts grid points left to scalar warm-up: no checkpoint
	// store, or a group too small to share.
	ScalarPoints uint64
	// Wall is the summed wall-clock time of the passes' warm halves —
	// warm-up, or restoring checkpoints (CPU-seconds: passes running in
	// parallel overlap).
	Wall time.Duration
}

// WarmGrid is the lane phase of grid execution: plan the grid, then run
// one lane-parallel warm pass per shareable group from a pool of par
// workers taking the groups in laneOrder. It only pre-pays warm-ups into
// the points' checkpoint stores — the points themselves still execute
// exactly as before, restoring what the passes stored. Pass errors
// (cancellation) are dropped deliberately: the pass is an accelerator, and
// whatever it could not warm is warmed scalar by the runs, which surface
// their own errors.
func WarmGrid(points []GridPoint, par int) LaneTally {
	groups, scalar := planLanes(points)
	return laneGrid(groups, scalar, par, nil, warmPass)
}

// warmPass is the warm-only lane pass of one group.
func warmPass(g *LaneGroup) (tlc.LaneStats, error) {
	return tlc.WarmLanes(g.Designs, g.Bench, g.Opt)
}

// laneGrid runs pass on each shareable group of a plan from a pool of par
// workers taking the groups in laneOrder, tallying what the passes covered
// with the plan's scalar points. timed reports the groups pass times (nil:
// none).
func laneGrid(groups []LaneGroup, scalar, par int, timed func(*LaneGroup) bool, pass func(*LaneGroup) (tlc.LaneStats, error)) LaneTally {
	if par < 1 {
		par = 1
	}
	order := laneOrder(groups, timed)
	t := LaneTally{ScalarPoints: uint64(scalar)}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par && w < len(order); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				st, err := pass(&groups[order[i]])
				if err != nil {
					continue
				}
				mu.Lock()
				if st.Lanes > 0 {
					t.Groups++
					t.Lanes += uint64(st.Lanes)
					t.Batches += st.Batches
				}
				t.Wall += st.Warm
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return t
}

// WarmGrid runs the lane phase for an explicit grid and adds its tally to
// the suite's metrics; NoLanes makes it a no-op. A one-core suite, full
// detail or sampled, whose own shareable groups number at least par runs
// each of them end to end through tlc.RunLanes — warm-up and timed region
// — and completes the group's cells with the results, so the suite's later
// requests for them are cache hits. Other suites, and groups of points
// under other options, get the warm-only pass of the package-level
// WarmGrid: callers that then run the same points — through this suite or
// any executor sharing the points' checkpoint stores — restore the
// pre-paid warm states instead of re-warming.
//
// The par rule keeps the grid's width. A timed group runs its designs one
// after another on one worker, so fewer groups than workers would leave
// workers idle that the per-cell runs after a warm-only pass keep busy
// (tlcsim -design all -bench gcc: one group, six cells).
func (s *Suite) WarmGrid(points []GridPoint, par int) {
	if s.NoLanes {
		return
	}
	opt := s.options()
	content := opt.ContentKey()
	own := func(g *LaneGroup) bool {
		return len(g.Designs) > 1 && g.Opt.Checkpoints == opt.Checkpoints && g.Opt.ContentKey() == content
	}
	groups, scalar := planLanes(points)
	owned := 0
	for i := range groups {
		if own(&groups[i]) {
			owned++
		}
	}
	pass := warmPass
	var timed func(*LaneGroup) bool
	if opt.Cores <= 1 && owned >= max(par, 1) {
		timed = own
		pass = func(g *LaneGroup) (tlc.LaneStats, error) {
			if !own(g) {
				return warmPass(g)
			}
			return s.runLanes(g, opt)
		}
	}
	t := laneGrid(groups, scalar, par, timed, pass)
	s.mu.Lock()
	s.m.LaneGroups += t.Groups
	s.m.LanesWarmed += t.Lanes
	s.m.LaneBatches += t.Batches
	s.m.LaneScalarPoints += t.ScalarPoints
	s.m.LaneWall += t.Wall
	s.mu.Unlock()
}

// runLanes runs one group's cells that no request has claimed yet as
// timed lanes under opt, the suite's run options, and completes their
// flights. When the pass fails, the claimed cells run on their own, as
// they would have without it.
func (s *Suite) runLanes(g *LaneGroup, opt tlc.Options) (tlc.LaneStats, error) {
	var designs []tlc.Design
	var flights []*flight
	for _, d := range g.Designs {
		if f, owner := s.claim(runKey{d, g.Bench}); owner {
			designs = append(designs, d)
			flights = append(flights, f)
		}
	}
	if len(designs) == 0 {
		return tlc.LaneStats{}, nil
	}
	start := time.Now()
	res, st, err := tlc.RunLanes(designs, g.Bench, opt)
	if err != nil {
		for i, d := range designs {
			s.execute(runKey{d, g.Bench}, flights[i])
		}
		return st, err
	}
	share := (time.Since(start) - st.Warm) / time.Duration(len(designs))
	for i, d := range designs {
		flights[i].res = res[i].Result
		if s.Sampled() {
			flights[i].sres = res[i]
		}
		s.finish(runKey{d, g.Bench}, flights[i], share)
	}
	return st, nil
}
