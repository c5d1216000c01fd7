package experiments

import (
	"reflect"
	"testing"

	"tlc"
)

// planPoints builds a grid over designs x benches with a shared option set.
func planPoints(designs []tlc.Design, benches []string, opt tlc.Options) []GridPoint {
	pts := make([]GridPoint, 0, len(designs)*len(benches))
	for _, d := range designs {
		for _, b := range benches {
			pts = append(pts, GridPoint{Design: d, Bench: b, Opt: opt})
		}
	}
	return pts
}

func TestLanePlannerGroupsByStream(t *testing.T) {
	store := tlc.NewCheckpointStore(0, "")
	opt := tlc.DefaultOptions()
	opt.Checkpoints = store
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}

	groups, scalar := planLanes(planPoints(designs, []string{"mcf", "gcc"}, opt))
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2 (one per benchmark)", len(groups))
	}
	for _, g := range groups {
		if len(g.Designs) != 3 {
			t.Errorf("bench %s: got %d designs, want 3", g.Bench, len(g.Designs))
		}
	}
	if scalar != 0 {
		t.Errorf("got %d scalar points, want 0", scalar)
	}
}

func TestLanePlannerScalarFallbacks(t *testing.T) {
	store := tlc.NewCheckpointStore(0, "")
	opt := tlc.DefaultOptions()
	opt.Checkpoints = store
	noStore := tlc.DefaultOptions()

	pts := []GridPoint{
		// A shareable pair...
		{Design: tlc.DesignSNUCA2, Bench: "mcf", Opt: opt},
		{Design: tlc.DesignTLC, Bench: "mcf", Opt: opt},
		// ...a duplicate configuration (no second lane)...
		{Design: tlc.DesignTLC, Bench: "mcf", Opt: opt},
		// ...a lone design on its own stream...
		{Design: tlc.DesignTLC, Bench: "gcc", Opt: opt},
		// ...and a point that cannot carry a warm-up at all.
		{Design: tlc.DesignDNUCA, Bench: "mcf", Opt: noStore},
	}
	groups, scalar := planLanes(pts)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if len(groups[0].Designs) != 2 || groups[0].Bench != "mcf" {
		t.Errorf("group 0 = %s/%d designs, want mcf/2", groups[0].Bench, len(groups[0].Designs))
	}
	if len(groups[1].Designs) != 1 || groups[1].Bench != "gcc" {
		t.Errorf("group 1 = %s/%d designs, want gcc/1", groups[1].Bench, len(groups[1].Designs))
	}
	// One storeless point plus one singleton group.
	if scalar != 2 {
		t.Errorf("got %d scalar points, want 2", scalar)
	}
}

func TestLanePlannerSplitsDistinctStreams(t *testing.T) {
	opt1 := tlc.DefaultOptions()
	opt1.Checkpoints = tlc.NewCheckpointStore(0, "")
	opt2 := opt1
	opt2.Checkpoints = tlc.NewCheckpointStore(0, "")
	opt3 := opt1
	opt3.WarmSeed = 7

	pts := []GridPoint{
		{Design: tlc.DesignSNUCA2, Bench: "mcf", Opt: opt1},
		{Design: tlc.DesignTLC, Bench: "mcf", Opt: opt1},
		// Same grid shape, different store: must not share a pass.
		{Design: tlc.DesignSNUCA2, Bench: "mcf", Opt: opt2},
		{Design: tlc.DesignTLC, Bench: "mcf", Opt: opt2},
		// Same store, different warm seed: a different stream.
		{Design: tlc.DesignSNUCA2, Bench: "mcf", Opt: opt3},
		{Design: tlc.DesignTLC, Bench: "mcf", Opt: opt3},
	}
	groups, _ := planLanes(pts)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3 (per store and warm seed)", len(groups))
	}
	for i, g := range groups {
		if len(g.Designs) != 2 {
			t.Errorf("group %d: got %d designs, want 2", i, len(g.Designs))
		}
	}
}

// TestLanePlannerSeedEquivalentKeys pins the warm-plan keying rule: a zero
// WarmSeed falls back to Seed, so points differing only in timed seed (the
// seed-sweep shape, all pinned to one warm seed) group together.
func TestLanePlannerSeedEquivalentKeys(t *testing.T) {
	store := tlc.NewCheckpointStore(0, "")
	base := tlc.DefaultOptions()
	base.Checkpoints = store

	a := base
	a.Seed = 1 // effective warm seed 1
	b := base
	b.Seed = 5
	b.WarmSeed = 1 // explicitly pinned to the same stream
	pts := []GridPoint{
		{Design: tlc.DesignSNUCA2, Bench: "mcf", Opt: a},
		{Design: tlc.DesignTLC, Bench: "mcf", Opt: b},
	}
	groups, _ := planLanes(pts)
	if len(groups) != 1 || len(groups[0].Designs) != 2 {
		t.Fatalf("seed-equivalent points did not group: %d groups", len(groups))
	}
}

// TestLanePlannerCountsCMPPointsScalar: a CMP point warms one stream per
// core, so it joins no group and counts as scalar; one-core points of the
// same benchmark still group among themselves, whichever kind of point
// comes first, and keep their shared warm-up.
func TestLanePlannerCountsCMPPointsScalar(t *testing.T) {
	one := tlc.Options{WarmInstructions: 20_000, RunInstructions: 5_000, Seed: 1,
		Checkpoints: tlc.NewCheckpointStore(0, "")}
	cmp := one
	cmp.Cores = 2
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignTLC}
	pts := append(planPoints(designs, []string{"gcc"}, cmp), planPoints(designs, []string{"gcc"}, one)...)

	groups, scalar := planLanes(pts)
	if len(groups) != 1 || len(groups[0].Designs) != 2 || groups[0].Opt.Cores > 1 {
		t.Fatalf("got groups %+v, want one one-core group of 2 designs", groups)
	}
	if scalar != 2 {
		t.Errorf("got %d scalar points, want the 2 CMP points", scalar)
	}
	tally := WarmGrid(pts, 1)
	if tally.Groups != 1 || tally.Lanes != 2 || tally.ScalarPoints != 2 {
		t.Errorf("lane phase %+v, want 1 group / 2 lanes / 2 scalar points", tally)
	}
	if tally := WarmGrid(planPoints(designs, []string{"mcf", "art"}, cmp), 1); tally.Groups != 0 || tally.ScalarPoints != 4 {
		t.Errorf("all-CMP lane phase %+v, want 0 groups / 4 scalar points", tally)
	}
}

// TestLaneOrderLongestWarmFirst pins the lane phase's dispatch order:
// shareable groups by estimated cost, costliest first, ties in plan order,
// singleton groups left out. A warm-only group costs its effective warm
// length weighted by the benchmark's L2 request rate: automatic warm
// lengths resolve per benchmark (swim and equake clamp at 24 M, oltp
// ≈20.6 M, gcc and mcf at the 4 M floor, where mcf's higher rate ranks it
// first), and an explicit length overrides them. A timed group adds its
// designs' timed regions, which lift mcf and gcc, the dearest to time,
// past the groups with long warm-ups and cheap timed regions.
func TestLaneOrderLongestWarmFirst(t *testing.T) {
	store := tlc.NewCheckpointStore(0, "")
	opt := tlc.DefaultOptions()
	opt.Checkpoints = store
	fixed := opt
	fixed.WarmInstructions = 22_000_000
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignTLC}
	pts := planPoints(designs, []string{"gcc", "swim", "oltp", "mcf", "equake"}, opt)
	pts = append(pts, planPoints(designs, []string{"bzip"}, fixed)...)
	pts = append(pts, GridPoint{Design: tlc.DesignTLC, Bench: "applu", Opt: opt})

	groups, _ := planLanes(pts)
	order := func(timed func(*LaneGroup) bool) []string {
		var got []string
		for _, i := range laneOrder(groups, timed) {
			got = append(got, groups[i].Bench)
		}
		return got
	}
	if got, want := order(nil), []string{"swim", "equake", "bzip", "oltp", "mcf", "gcc"}; !reflect.DeepEqual(got, want) {
		t.Errorf("warm-only dispatch order %v, want %v", got, want)
	}
	timed := func(g *LaneGroup) bool { return g.Opt.WarmInstructions == 0 }
	if got, want := order(timed), []string{"swim", "mcf", "equake", "gcc", "oltp", "bzip"}; !reflect.DeepEqual(got, want) {
		t.Errorf("timed dispatch order %v, want %v", got, want)
	}
}

// TestWarmGridPoolWarmsEveryGroup runs the lane phase from a two-worker
// pool over more groups than workers: every shareable group is warmed
// exactly once, and the singleton group is left to scalar warm-up.
func TestWarmGridPoolWarmsEveryGroup(t *testing.T) {
	s := NewSuite(tlc.Options{
		WarmInstructions: 20_000,
		RunInstructions:  5_000,
		Seed:             1,
		Checkpoints:      tlc.NewCheckpointStore(0, ""),
	})
	designs := []tlc.Design{tlc.DesignSNUCA2, tlc.DesignDNUCA, tlc.DesignTLC}
	pts := planPoints(designs, []string{"gcc", "swim", "oltp", "mcf", "perl"}, s.Opt)
	pts = append(pts, GridPoint{Design: tlc.DesignTLC, Bench: "applu", Opt: s.Opt})
	s.WarmGrid(pts, 2)
	m := s.Metrics()
	if m.LaneGroups != 5 || m.LanesWarmed != 15 || m.LaneScalarPoints != 1 {
		t.Fatalf("lane phase warmed %d groups / %d lanes with %d scalar points, want 5 / 15 / 1",
			m.LaneGroups, m.LanesWarmed, m.LaneScalarPoints)
	}
}
