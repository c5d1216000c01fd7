package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("counter %d after reset, want 0", c.Value())
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(3, 4); got != 0.75 {
		t.Fatalf("Ratio(3,4)=%v, want 0.75", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Fatalf("Ratio(3,0)=%v, want 0", got)
	}
}

func TestPerKilo(t *testing.T) {
	if got := PerKilo(5, 1000); got != 5 {
		t.Fatalf("PerKilo(5,1000)=%v, want 5", got)
	}
	if got := PerKilo(1, 2000); got != 0.5 {
		t.Fatalf("PerKilo(1,2000)=%v, want 0.5", got)
	}
	if got := PerKilo(1, 0); got != 0 {
		t.Fatalf("PerKilo(1,0)=%v, want 0", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(64)
	for _, v := range []uint64{10, 10, 10, 13, 16, 16} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count %d, want 6", h.Count())
	}
	if h.Sum() != 75 {
		t.Fatalf("sum %d, want 75", h.Sum())
	}
	if got := h.Mean(); math.Abs(got-12.5) > 1e-12 {
		t.Fatalf("mean %v, want 12.5", got)
	}
	if h.Min() != 10 || h.Max() != 16 {
		t.Fatalf("min/max %d/%d, want 10/16", h.Min(), h.Max())
	}
	// Four of the six samples are <= 13, three are <= 10.
	if got := h.Percentile(0.6); got != 13 {
		t.Fatalf("p60 %d, want 13", got)
	}
	if got := h.Percentile(0.5); got != 10 {
		t.Fatalf("p50 %d, want 10", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(8)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram percentile should be 0")
	}
}

func TestHistogramOverflowKeepsExactMean(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(5)
	h.Observe(1000) // far past the cap
	if got := h.Mean(); got != 502.5 {
		t.Fatalf("mean with overflow %v, want 502.5", got)
	}
	if h.Max() != 1000 {
		t.Fatalf("max %d, want 1000", h.Max())
	}
	// The overflow sample sits in no exact bucket: the median is the one
	// in-range sample, and the top percentile reports the observed max.
	if got := h.Percentile(0.5); got != 5 {
		t.Fatalf("p50 %d, want 5", got)
	}
	if got := h.Percentile(1); got != 1000 {
		t.Fatalf("p100 %d, want 1000", got)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100)
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v % 100) // values 0..99, one of each plus an extra 0
	}
	if got := h.Percentile(0.5); got != 49 {
		t.Fatalf("p50 %d, want 49", got)
	}
	if got := h.Percentile(1.0); got != 99 {
		t.Fatalf("p100 %d, want 99", got)
	}
	if got := h.Percentile(0.0); got != 0 {
		t.Fatalf("p0 %d, want 0", got)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(16)
	h.Observe(3)
	h.Observe(300)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(2)
	if h.Mean() != 2 {
		t.Fatalf("mean after reset+observe %v, want 2", h.Mean())
	}
}

// Property: for any sample set, mean is sum/count exactly, min <= p50 <= max
// for in-range data, p100 is the max, and Percentile is monotone in p.
func TestQuickHistogramInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHistogram(256)
		var sum uint64
		for _, v := range raw {
			h.Observe(uint64(v))
			sum += uint64(v)
		}
		if h.Sum() != sum || h.Count() != uint64(len(raw)) {
			return false
		}
		if len(raw) > 0 {
			if p := h.Percentile(0.5); p < h.Min() || p > h.Max() {
				return false
			}
			if h.Percentile(1) != h.Max() {
				return false
			}
		}
		var prev uint64
		for p := 0.0; p <= 1; p += 0.0625 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	s.Append("a", 1.0)
	s.Append("b", 4.0)
	if got := s.GeoMean(); got != 2.0 {
		t.Fatalf("series geomean %v, want 2", got)
	}
	if len(s.Labels) != 2 || s.Labels[1] != "b" || s.Values[1] != 4 {
		t.Fatalf("series points %v %v", s.Labels, s.Values)
	}
}

func TestSeriesDegenerate(t *testing.T) {
	var s Series
	if s.GeoMean() != 0 {
		t.Fatal("empty series should report zeros")
	}
	s.Append("neg", -1)
	if s.GeoMean() != 0 {
		t.Fatal("geomean with non-positive value should be 0")
	}
}

func TestPercentileClampsP(t *testing.T) {
	// All samples in bucket 0 with a large cap: an unclamped p > 1 used to
	// walk past the distribution and report cap-1.
	allZero := NewHistogram(100)
	for i := 0; i < 10; i++ {
		allZero.Observe(0)
	}
	spread := NewHistogram(100)
	for v := uint64(1); v <= 10; v++ {
		spread.Observe(v)
	}
	withOverflow := NewHistogram(10)
	withOverflow.Observe(2)
	withOverflow.Observe(50) // overflow

	cases := []struct {
		name string
		h    *Histogram
		p    float64
		want uint64
	}{
		{"p>1 all-zero clamps to max", allZero, 2.0, 0},
		{"p=1 all-zero", allZero, 1.0, 0},
		{"p<0 clamps to min", spread, -0.5, 1},
		{"NaN treated as min", spread, math.NaN(), 1},
		{"p>1 equals p=1", spread, 1.5, 10},
		{"median unaffected", spread, 0.5, 5},
		{"p=0 reports min", spread, 0, 1},
		{"p>1 with overflow reports observed max", withOverflow, 7.0, 50},
	}
	for _, c := range cases {
		if got := c.h.Percentile(c.p); got != c.want {
			t.Errorf("%s: Percentile(%v) = %d, want %d", c.name, c.p, got, c.want)
		}
	}
}

func TestPercentileCountsOverflow(t *testing.T) {
	// Samples 2, 50, 80 with cap 10: 50 and 80 land in no exact bucket but
	// still count toward every percentile's target, so the in-range sample
	// covers only the first third of the distribution.
	h := NewHistogram(10)
	h.Observe(2)
	h.Observe(50)
	h.Observe(80)
	cases := []struct {
		p    float64
		want uint64
	}{
		{0, 2},
		{0.3, 2},   // within the in-range third
		{0.34, 80}, // past it: among the overflow samples, reported as max
		{0.5, 80},
		{1, 80},
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := h.Mean(); got != 44 {
		t.Errorf("mean %v, want 44 (overflow samples at their exact values)", got)
	}
}

func TestPercentileReachesOverflow(t *testing.T) {
	// Samples 2 and 50 with cap 10: the median is the in-range 2, but any
	// percentile past it lands among overflow samples and must report the
	// observed max (50), not the cap-1 value (9) the old code returned.
	h := NewHistogram(10)
	h.Observe(2)
	h.Observe(50)
	if got := h.Percentile(0.5); got != 2 {
		t.Errorf("p50 = %d, want 2", got)
	}
	if got := h.Percentile(1.0); got != 50 {
		t.Errorf("p100 = %d, want 50 (the overflowed sample)", got)
	}

	// All samples overflowed: every percentile is in overflow territory.
	h2 := NewHistogram(4)
	h2.Observe(70)
	h2.Observe(90)
	for _, p := range []float64{0, 0.01, 0.5, 1.0} {
		if got := h2.Percentile(p); got != 90 {
			t.Errorf("all-overflow Percentile(%v) = %d, want 90", p, got)
		}
	}
	if h2.Min() != 70 || h2.Mean() != 80 {
		t.Errorf("all-overflow min/mean %d/%v, want 70/80", h2.Min(), h2.Mean())
	}
}

func TestPercentileAllOverflow(t *testing.T) {
	// Samples 100 and 200 with cap 4: no sample lands in an exact bucket,
	// yet every sample is counted, and every percentile reports the
	// observed max rather than a value below the smallest sample.
	h := NewHistogram(4)
	h.Observe(100)
	h.Observe(200)
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		if got := h.Percentile(p); got != 200 {
			t.Errorf("Percentile(%v) = %d, want 200", p, got)
		}
	}
	if h.Min() != 100 || h.Max() != 200 || h.Mean() != 150 {
		t.Errorf("min/max/mean %d/%d/%v, want 100/200/150", h.Min(), h.Max(), h.Mean())
	}
}

func TestWeightedMatchesSampleOnUniformWeights(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	var s Sample
	var w Weighted
	for _, x := range xs {
		s.Observe(x)
		w.Observe(x, 7) // any constant weight
	}
	if w.N() != uint64(len(xs)) {
		t.Fatalf("n=%d", w.N())
	}
	if math.Abs(w.Mean()-s.Mean()) > 1e-12 {
		t.Errorf("weighted mean %v, unweighted %v", w.Mean(), s.Mean())
	}
	if math.Abs(w.StdDev()-s.StdDev()) > 1e-12 {
		t.Errorf("weighted stddev %v, unweighted %v", w.StdDev(), s.StdDev())
	}
	if math.Abs(w.CI95()-s.CI95()) > 1e-12 {
		t.Errorf("weighted CI %v, unweighted %v", w.CI95(), s.CI95())
	}
	if math.Abs(w.EffectiveN()-float64(len(xs))) > 1e-12 {
		t.Errorf("effective n %v for uniform weights, want %d", w.EffectiveN(), len(xs))
	}
}

func TestWeightedSkewedWeights(t *testing.T) {
	var w Weighted
	w.Observe(1, 90)
	w.Observe(11, 10)
	if got, want := w.Mean(), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean %v, want %v", got, want)
	}
	// Kish: (100)²/(8100+100) = 1.2195...: far below the raw n of 2.
	if got := w.EffectiveN(); math.Abs(got-10000.0/8200.0) > 1e-12 {
		t.Errorf("effective n %v", got)
	}
}

func TestWeightedDegenerate(t *testing.T) {
	var w Weighted
	if w.Mean() != 0 || w.StdDev() != 0 || w.CI95() != 0 || w.EffectiveN() != 0 {
		t.Error("empty Weighted reports non-zero statistics")
	}
	w.Observe(5, 0)  // ignored
	w.Observe(5, -1) // ignored
	if w.N() != 0 {
		t.Error("non-positive weights observed")
	}
	w.Observe(5, 3)
	if w.Mean() != 5 || w.StdDev() != 0 || w.CI95() != 0 {
		t.Error("single observation: want mean only, zero spread")
	}
}
