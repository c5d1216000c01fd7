package sample

import (
	"math"
	"testing"
)

// calFixture builds a 4-cluster profile and observations that follow an
// exact linear model cpi = a + b·x, so the calibrated estimate is known in
// closed form: a·Total + b·TotalEvents.
func calFixture() (Profile, Calibration, float64) {
	const a, b = 0.6, 120.0
	p := Profile{
		Total:   100_000,
		Weights: []uint64{40_000, 30_000, 20_000, 10_000},
	}
	rates := []float64{0.001, 0.004, 0.002, 0.008}
	var c Calibration
	for k, x := range rates {
		c.Obs = append(c.Obs, SpanObs{Cluster: k, CPI: a + b*x, X: []float64{x}})
	}
	// Exact full-run event total, deliberately NOT the weighted sum of the
	// observed rates — the whole point of calibration is that the exact
	// total replaces the noisy per-representative extrapolation.
	c.Totals = []float64{310}
	c.Bounds = [][2]float64{{0, 600}}
	return p, c, a*100_000 + b*310
}

func TestCalibrateRecoversExactLinearModel(t *testing.T) {
	p, c, want := calFixture()
	est := &Estimate{Cycles: want * 1.1} // stratified baseline, off by 10%
	if !est.Calibrate(p, c) {
		t.Fatal("well-posed calibration refused")
	}
	if math.Abs(est.Cycles-want) > 1e-6*want {
		t.Errorf("calibrated cycles %.3f, want %.3f", est.Cycles, want)
	}
}

func TestCalibrateClampsWildSlopes(t *testing.T) {
	p, c, _ := calFixture()
	// Tighten the bound far below the true slope (120): the fit must clamp
	// and refit the intercept so weighted residuals sum to zero, keeping
	// the prediction finite and deliberate rather than extrapolating.
	c.Bounds = [][2]float64{{0, 10}}
	base := 65_000.0
	est := &Estimate{Cycles: base}
	if !est.Calibrate(p, c) {
		t.Fatal("clamped calibration refused")
	}
	theta1 := 10.0
	var num, den float64
	for _, ob := range c.Obs {
		wt := float64(p.Weights[ob.Cluster])
		num += wt * (ob.CPI - theta1*ob.X[0])
		den += wt
	}
	want := (num/den)*float64(p.Total) + theta1*c.Totals[0]
	if math.Abs(est.Cycles-want) > 1e-6*want {
		t.Errorf("clamped calibration %.3f, want %.3f", est.Cycles, want)
	}
}

func TestCalibrateGuards(t *testing.T) {
	p, _, want := calFixture()
	cases := []struct {
		name string
		mod  func(*Estimate, *Calibration)
	}{
		{"no observations", func(e *Estimate, c *Calibration) { c.Obs = nil }},
		{"missing bounds", func(e *Estimate, c *Calibration) { c.Bounds = nil }},
		{"covariate length mismatch", func(e *Estimate, c *Calibration) { c.Obs[0].X = []float64{1, 2} }},
		{"cluster out of range", func(e *Estimate, c *Calibration) { c.Obs[0].Cluster = len(p.Weights) }},
		// A stratified baseline wildly far from the prediction means the
		// model left its trust region: keep the baseline.
		{"prediction outside trust region", func(e *Estimate, c *Calibration) { e.Cycles = want * 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pp, cc, _ := calFixture()
			est := &Estimate{Cycles: want * 1.1}
			tc.mod(est, &cc)
			before := est.Cycles
			if est.Calibrate(pp, cc) {
				t.Fatal("degenerate calibration accepted")
			}
			if est.Cycles != before {
				t.Error("refused calibration still modified the estimate")
			}
		})
	}
}

func TestSolveSym(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	x := solveSym(a, []float64{5, 10})
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solveSym = %v, want [1 3]", x)
	}
}
