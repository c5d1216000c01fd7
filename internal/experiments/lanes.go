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
// of one run. The lane planner consumes grids in this shape; executors keep
// running points however they already do (suites, server submits) — the
// plan only decides which warm-ups can be paid once, together.
type GridPoint struct {
	Design tlc.Design
	Bench  string
	Opt    tlc.Options
}

// LaneGroup is one plan entry: the distinct designs of a grid whose points
// share a workload stream — same benchmark, same effective warm seed, same
// warm length, same checkpoint store — so one lane-parallel pass
// (tlc.WarmLanes) warms all of them off a single generator traversal.
// Groups with fewer than two designs gain nothing from sharing; planners
// report them and executors leave those points to scalar warm-up.
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
// points would consume the identical warm stream into the same store.
// The warm length is keyed raw (zero means per-benchmark automatic, which
// is equal within a benchmark anyway); the store pointer keys identity, so
// grids spanning stores never share a pass.
type laneKey struct {
	bench    string
	warmSeed int64
	warm     uint64
	store    *tlc.CheckpointStore
}

// LanePlanner groups grid points for lane-parallel warm-up. A planner
// reuses its internal index and group storage across Plan calls, so
// steady-state planning allocates nothing (the alloc pin covers this); it
// is not safe for concurrent use — give each goroutine its own, or lock.
type LanePlanner struct {
	idx    map[laneKey]int
	groups []LaneGroup
	scalar int
}

// NewLanePlanner returns an empty planner.
func NewLanePlanner() *LanePlanner {
	return &LanePlanner{idx: make(map[laneKey]int)}
}

// Plan groups points by shared workload stream, in first-occurrence order
// (deterministic for a deterministic grid). Points without a checkpoint
// store cannot carry a warm-up to their run and are counted straight to
// scalar fallback. The returned slice and its groups are valid until the
// next Plan call.
func (p *LanePlanner) Plan(points []GridPoint) []LaneGroup {
	for k := range p.idx {
		delete(p.idx, k)
	}
	p.groups = p.groups[:0]
	p.scalar = 0
	for i := range points {
		pt := &points[i]
		if pt.Opt.Checkpoints == nil {
			p.scalar++
			continue
		}
		warmSeed := pt.Opt.WarmSeed
		if warmSeed == 0 {
			warmSeed = pt.Opt.Seed
		}
		k := laneKey{pt.Bench, warmSeed, pt.Opt.WarmInstructions, pt.Opt.Checkpoints}
		gi, ok := p.idx[k]
		if !ok {
			gi = len(p.groups)
			if gi < cap(p.groups) {
				// Reuse the retired group's Designs backing array.
				p.groups = p.groups[:gi+1]
				g := &p.groups[gi]
				g.Bench = pt.Bench
				g.Opt = pt.Opt
				g.Designs = g.Designs[:0]
			} else {
				p.groups = append(p.groups, LaneGroup{Bench: pt.Bench, Opt: pt.Opt})
			}
			p.idx[k] = gi
		}
		g := &p.groups[gi]
		if !containsDesign(g.Designs, pt.Design) {
			g.Designs = append(g.Designs, pt.Design)
		}
	}
	// Lone designs share nothing: their points fall back to scalar
	// warm-up inside their own runs.
	for i := range p.groups {
		if len(p.groups[i].Designs) < 2 {
			p.scalar++
		}
	}
	return p.groups
}

// ScalarPoints reports how many points of the last Plan were left to
// scalar execution: points with no checkpoint store, plus one per group
// too small to share.
func (p *LanePlanner) ScalarPoints() int { return p.scalar }

func containsDesign(ds []tlc.Design, d tlc.Design) bool {
	for _, x := range ds {
		if x == d {
			return true
		}
	}
	return false
}

// laneOrder lists the indices of the shareable groups (two or more
// designs) in dispatch order: longest effective warm-up first, ties in plan
// order. A pass's time grows with its warm length, so a long pass started
// last would trail the rest of the lane phase.
func laneOrder(groups []LaneGroup) []int {
	order := make([]int, 0, len(groups))
	warm := make([]uint64, len(groups))
	for i := range groups {
		g := &groups[i]
		if len(g.Designs) < 2 {
			continue
		}
		order = append(order, i)
		warm[i] = g.Opt.WarmInstructions
		if warm[i] == 0 {
			spec, _ := workload.SpecByName(g.Bench)
			warm[i] = spec.AutoWarmInstructions()
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return warm[order[a]] > warm[order[b]] })
	return order
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
	// Wall is the summed wall-clock time of the passes (CPU-seconds:
	// passes running in parallel overlap).
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
	if par < 1 {
		par = 1
	}
	p := NewLanePlanner()
	groups := p.Plan(points)
	order := laneOrder(groups)
	t := LaneTally{ScalarPoints: uint64(p.ScalarPoints())}
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
				g := &groups[order[i]]
				start := time.Now()
				st, err := tlc.WarmLanes(g.Designs, g.Bench, g.Opt)
				if err != nil || st.Lanes == 0 {
					continue
				}
				mu.Lock()
				t.Groups++
				t.Lanes += uint64(st.Lanes)
				t.Batches += st.Batches
				t.Wall += time.Since(start)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return t
}

// WarmGrid runs the lane phase (the package-level WarmGrid) for an explicit
// grid and adds its tally to the suite's metrics; NoLanes makes it a no-op.
// Callers that then run the same points — through this suite or any
// executor sharing the points' checkpoint stores — restore the pre-paid
// warm states instead of re-warming.
func (s *Suite) WarmGrid(points []GridPoint, par int) {
	if s.NoLanes {
		return
	}
	t := WarmGrid(points, par)
	s.mu.Lock()
	s.m.LaneGroups += t.Groups
	s.m.LanesWarmed += t.Lanes
	s.m.LaneBatches += t.Batches
	s.m.LaneScalarPoints += t.ScalarPoints
	s.m.LaneWall += t.Wall
	s.mu.Unlock()
}
