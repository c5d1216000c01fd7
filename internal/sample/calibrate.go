package sample

// Model-assisted calibration for phase-sampled cycle estimates. The plain
// stratified estimator (one representative speaks for its whole cluster)
// carries the full within-cluster CPI variance, and on these workloads that
// variance is dominated by rare long-latency events — a handful of L2
// misses per window at hundreds of cycles each — whose per-window counts
// are irreducible sampling noise, not phase structure. The fix is a GREG
// (generalized regression) estimator from survey statistics: regress the
// measured representatives' CPI on per-window event rates whose FULL-RUN
// totals the caller knows exactly (L2 misses via warm-path probing,
// mispredicts from the workload generator, shadow-L1 misses from the
// profile), then predict total cycles from those exact totals. Windows'
// event-count fluctuations then cancel exactly instead of being amplified
// by cluster weight, which is worth 3-5x in worst-case error on the
// miss-sparse commercial workloads (oltp, sjbb).

import "math"

// SpanObs is one timed representative's measurement for calibration:
// the cluster it represents, its measured CPI, and its covariate rates
// (events per instruction over the measured window, same order as
// Calibration.Totals).
type SpanObs struct {
	Cluster int
	CPI     float64
	X       []float64
}

// Calibration carries everything Calibrate needs beyond the profile: the
// per-representative observations (cluster order), the exact full-run
// covariate event totals, and per-covariate slope bounds.
type Calibration struct {
	Obs []SpanObs
	// Totals[j] is the exact number of covariate-j events in the full
	// timed region (all windows, measured or not).
	Totals []float64
	// Bounds[j] clamps covariate j's fitted slope (cycles per event) to a
	// physically plausible range; a clamped fit refits the intercept so the
	// weighted residuals still sum to zero. Bounds keep a sparse covariate
	// (a few events across all representatives) from extrapolating a wild
	// slope across the full-run total.
	Bounds [][2]float64
}

// Calibrate replaces e.Cycles with the model-assisted estimate when
// the fit is well-posed, and reports whether it did. On any degeneracy —
// non-finite solution, or a prediction outside [¼, 4]x the stratified
// estimate — the stratified value stands, so calibration can only ever be
// applied deliberately and never silently produces garbage. Deterministic:
// observations are consumed in slice order with fixed-order arithmetic.
func (e *Estimate) Calibrate(p Profile, c Calibration) bool {
	if len(c.Obs) == 0 || len(c.Totals) == 0 || len(c.Bounds) != len(c.Totals) {
		return false
	}
	d := 1 + len(c.Totals)
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	row := make([]float64, d)
	for _, ob := range c.Obs {
		if len(ob.X) != len(c.Totals) || ob.Cluster < 0 || ob.Cluster >= len(p.Weights) {
			return false
		}
		row[0] = 1
		copy(row[1:], ob.X)
		wt := float64(p.Weights[ob.Cluster])
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				xtx[i][j] += wt * row[i] * row[j]
			}
			xty[i] += wt * row[i] * ob.CPI
		}
	}
	// Tiny ridge for rank only (a covariate constant across representatives
	// would otherwise make the system singular); small enough to leave any
	// identified slope untouched.
	for i := range xtx {
		xtx[i][i] += 1e-9
	}
	theta := solveSym(xtx, xty)
	clamped := false
	for j, b := range c.Bounds {
		if theta[1+j] < b[0] {
			theta[1+j], clamped = b[0], true
		} else if theta[1+j] > b[1] {
			theta[1+j], clamped = b[1], true
		}
	}
	if clamped {
		// Refit the intercept so the weighted residuals of the clamped
		// model sum to zero — the property that makes GREG unbiased over
		// the sampled strata.
		var num, den float64
		for _, ob := range c.Obs {
			r := ob.CPI
			for j, x := range ob.X {
				r -= theta[1+j] * x
			}
			wt := float64(p.Weights[ob.Cluster])
			num += wt * r
			den += wt
		}
		theta[0] = num / den
	}
	pred := theta[0] * float64(p.Total)
	for j, tot := range c.Totals {
		pred += theta[1+j] * tot
	}
	for _, v := range theta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	if base := e.Cycles; !(pred > 0.25*base && pred < 4*base) {
		return false
	}
	e.Cycles = pred
	return true
}

// solveSym solves the d×d linear system a·x = b by Gaussian elimination
// with partial pivoting. a and b are consumed.
func solveSym(a [][]float64, b []float64) []float64 {
	d := len(b)
	for c := 0; c < d; c++ {
		p := c
		for r := c + 1; r < d; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		a[c], a[p] = a[p], a[c]
		b[c], b[p] = b[p], b[c]
		if a[c][c] == 0 {
			continue
		}
		for r := c + 1; r < d; r++ {
			f := a[r][c] / a[c][c]
			for j := c; j < d; j++ {
				a[r][j] -= f * a[c][j]
			}
			b[r] -= f * b[c]
		}
	}
	x := make([]float64, d)
	for i := d - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < d; j++ {
			s -= a[i][j] * x[j]
		}
		if a[i][i] != 0 {
			x[i] = s / a[i][i]
		}
	}
	return x
}
