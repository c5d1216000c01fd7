package experiments

// The CMP contention figure: one benchmark run across core counts on every
// design, reporting machine cycles, the slowdown against the design's own
// single-core run, and the coherence traffic behind it (BusRd/BusRdX,
// invalidations, downgrades, writebacks) plus the cycles requests spent
// delayed in shared-L2 arbitration. cmd/tlctables renders it via -only
// contention and cmd/tlcsweep -contention sweeps the same grid (locally or
// through tlcd); both go through ContentionTable, so their output is
// byte-identical per cell.

import (
	"sync"

	"tlc"
	"tlc/internal/report"
)

// ContentionPoint is one executed cell of the contention grid.
type ContentionPoint struct {
	Design tlc.Design
	Cores  int
	// Result and Metrics are the cell's run outcome; Metrics carries the
	// coherence counters ("coh.*", "cmp.arb.*") the table reads, absent —
	// and so zero — on single-core runs.
	Result  tlc.Result
	Metrics tlc.MetricsSnapshot
}

// ContentionCoreCounts is the figure's default x-axis.
func ContentionCoreCounts() []int { return []int{1, 2, 4} }

// ContentionGrid enumerates the figure's cells design-major with core
// counts ascending inside each design — the order ContentionTable renders.
func ContentionGrid(designs []tlc.Design, coreCounts []int) []ContentionPoint {
	points := make([]ContentionPoint, 0, len(designs)*len(coreCounts))
	for _, d := range designs {
		for _, n := range coreCounts {
			points = append(points, ContentionPoint{Design: d, Cores: n})
		}
	}
	return points
}

// Contention runs the grid in-process, bounded by par workers, and renders
// it. Runs are deterministic and land by cell index, so the table is
// byte-identical for every par value. opt.Cores is overridden per cell;
// opt.Sharing shapes every multi-core cell's cross-core reference pattern.
func Contention(opt tlc.Options, designs []tlc.Design, bench string, coreCounts []int, par int) (*report.Table, error) {
	points := ContentionGrid(designs, coreCounts)
	errs := make([]error, len(points))
	sem := make(chan struct{}, max(1, par))
	var wg sync.WaitGroup
	for i := range points {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p := &points[i]
			o := opt
			o.Cores = p.Cores
			user := o.OnMetrics
			o.OnMetrics = func(ev tlc.MetricsEvent) {
				p.Metrics = ev.Snapshot
				if user != nil {
					user(ev)
				}
			}
			p.Result, errs[i] = tlc.Run(p.Design, bench, o)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ContentionTable(bench, points), nil
}

// ContentionTable renders executed grid cells (in ContentionGrid order)
// as the contention figure. Slowdown normalizes each cell's cycles to the
// same design's single-core cell, so it isolates what sharing the L2 —
// arbitration plus coherence — costs; designs without a 1-core cell in
// points show an empty slowdown column.
func ContentionTable(bench string, points []ContentionPoint) *report.Table {
	base := make(map[tlc.Design]float64)
	for _, p := range points {
		if p.Cores <= 1 {
			base[p.Design] = float64(p.Result.Cycles)
		}
	}
	t := report.NewTable("CMP contention ("+bench+"): cycles and coherence traffic vs core count",
		"Design", "Cores", "Cycles", "Slowdown", "BusRd", "BusRdX", "Inval", "Downgrades", "Writebacks", "Arb delay (cyc)")
	for _, p := range points {
		slowdown := ""
		if b := base[p.Design]; b > 0 {
			slowdown = report.FormatFloat(float64(p.Result.Cycles) / b)
		}
		t.AddRow(p.Design.String(), p.Cores, float64(p.Result.Cycles), slowdown,
			counter(p.Metrics, "coh.busrd"), counter(p.Metrics, "coh.busrdx"),
			counter(p.Metrics, "coh.invalidations"), counter(p.Metrics, "coh.downgrades"),
			counter(p.Metrics, "coh.writebacks"), counter(p.Metrics, "cmp.arb.delay_cycles"))
	}
	return t
}

// counter reads a counter from a snapshot; absent names (every "coh.*" on
// a single-core run) read zero.
func counter(snap tlc.MetricsSnapshot, name string) uint64 {
	v, _ := snap.Value(name)
	return uint64(v)
}
