// Package stats collects the run-time statistics every experiment in the
// paper reports: counters (misses, promotions, insertions), latency
// histograms (mean lookup latency, Figure 6; predictable-lookup fraction,
// Table 6), and utilization series (Figure 7).
package stats

import (
	"math"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns a/b as a float, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// PerKilo returns events per thousand units, the paper's misses-per-1K-
// instructions metric (Table 6).
func PerKilo(events, units uint64) float64 {
	if units == 0 {
		return 0
	}
	return 1000 * float64(events) / float64(units)
}

// Histogram is an exact integer-valued histogram. Cache lookup latencies
// span a small range (a few to a few hundred cycles), so dense bucketing up
// to a cap with an overflow bucket is both exact and cheap.
type Histogram struct {
	buckets  []uint64 // buckets[v] = count of samples with value v, v < cap
	overflow uint64   // samples >= len(buckets)
	ovSum    uint64   // sum of overflow sample values
	count    uint64
	sum      uint64
	min, max uint64
}

// NewHistogram returns a histogram with exact buckets for values below cap.
// Values at or above cap are tracked in aggregate (count and sum) so the
// mean stays exact even with outliers.
func NewHistogram(cap int) *Histogram {
	if cap <= 0 {
		cap = 1
	}
	return &Histogram{buckets: make([]uint64, cap), min: math.MaxUint64}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v < uint64(len(h.buckets)) {
		h.buckets[v]++
	} else {
		h.overflow++
		h.ovSum += v
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the exact sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean reports the exact sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min reports the smallest sample, or 0 with no samples.
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest sample, or 0 with no samples.
func (h *Histogram) Max() uint64 { return h.max }

// CountAtMost reports how many samples were <= v. Overflow samples (values
// at or above the bucket cap) are tracked only in aggregate, so they are
// counted once v reaches the observed maximum — every sample is <= Max by
// definition. For cap <= v < Max the overflow samples' individual values
// are unknown and none are counted, making the result an exact lower bound
// that is monotone in v and exact at both extremes:
// CountAtMost(Max()) == Count().
func (h *Histogram) CountAtMost(v uint64) uint64 {
	var n uint64
	limit := v
	if limit >= uint64(len(h.buckets)) {
		limit = uint64(len(h.buckets)) - 1
	}
	for i := uint64(0); i <= limit; i++ {
		n += h.buckets[i]
	}
	if v >= h.max {
		n += h.overflow
	}
	return n
}

// Percentile reports the smallest value v such that at least p (0..1) of
// the samples are <= v. p is clamped to [0,1] (and NaN treated as 0), so an
// out-of-range p degrades to the min or max percentile. Overflow samples
// count as larger than every bucket; when the percentile lands among them
// their individual values are unknown and the observed maximum — the
// tightest correct upper bound — is reported.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		p = 0
	} else if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for v, c := range h.buckets {
		cum += c
		if cum >= target {
			return uint64(v)
		}
	}
	return h.max
}

// StdDev reports the sample standard deviation. Overflow samples fold in
// at their exact mean (ovSum/overflow) rather than the cap value, so a few
// far outliers no longer bias the spread low; only their within-overflow
// variance is approximated away.
func (h *Histogram) StdDev() float64 {
	if h.count < 2 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for v, c := range h.buckets {
		d := float64(v) - mean
		ss += d * d * float64(c)
	}
	if h.overflow > 0 {
		d := float64(h.ovSum)/float64(h.overflow) - mean
		ss += d * d * float64(h.overflow)
	}
	return math.Sqrt(ss / float64(h.count))
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.overflow = 0
	h.ovSum = 0
	h.count = 0
	h.sum = 0
	h.min = math.MaxUint64
	h.max = 0
}

// Series is an ordered set of (label, value) pairs: one figure data series.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Append adds one point to the series.
func (s *Series) Append(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// GeoMean reports the geometric mean of the series values, the conventional
// aggregate for normalized execution times. Non-positive values make the
// geometric mean undefined; they yield 0.
func (s *Series) GeoMean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range s.Values {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(s.Values)))
}

// Sample accumulates scalar observations and reports their mean with a 95%
// confidence interval — the aggregation sampled simulation applies to
// per-interval CPI, lookup latency, and miss rate. Welford's algorithm
// keeps the variance numerically stable without storing observations.
type Sample struct {
	n    uint64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Observe records one observation.
func (s *Sample) Observe(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N reports the number of observations.
func (s *Sample) N() uint64 { return s.n }

// Mean reports the sample mean (0 when empty).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// StdDev reports the sample standard deviation (Bessel-corrected; 0 with
// fewer than two observations).
func (s *Sample) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// CI95 reports the half-width of the normal-approximation 95% confidence
// interval on the mean: 1.96·s/√n. With fewer than two observations the
// spread is unknowable and CI95 is 0; callers wanting an honest interval
// should use several intervals (the sampling literature suggests ≥8).
func (s *Sample) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// Weighted accumulates weighted scalar observations and reports their
// weighted mean with a 95% confidence interval — the aggregation phase-aware
// sampling applies to per-cluster CPI and counter rates, where each
// representative interval stands in for a cluster of windows and its weight
// is the cluster's instruction count. West's incremental algorithm keeps the
// variance numerically stable without storing observations. The struct holds
// only scalar fields so values containing it stay comparable with ==.
type Weighted struct {
	sumw  float64 // Σw
	sumw2 float64 // Σw²
	mean  float64
	m2    float64 // weighted sum of squared deviations from the running mean
	n     uint64
}

// Observe records one observation x with weight w; non-positive weights are
// ignored.
func (s *Weighted) Observe(x, w float64) {
	if w <= 0 {
		return
	}
	s.n++
	s.sumw += w
	s.sumw2 += w * w
	d := x - s.mean
	s.mean += (w / s.sumw) * d
	s.m2 += w * d * (x - s.mean)
}

// N reports the number of observations (not the total weight).
func (s *Weighted) N() uint64 { return s.n }

// Mean reports the weighted mean (0 when empty).
func (s *Weighted) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// EffectiveN is Kish's effective sample size (Σw)²/Σw²: the number of
// equal-weight observations carrying the same information. It equals N for
// uniform weights and shrinks as the weights skew.
func (s *Weighted) EffectiveN() float64 {
	if s.sumw2 == 0 {
		return 0
	}
	return s.sumw * s.sumw / s.sumw2
}

// StdDev reports the weighted sample standard deviation with the
// reliability-weights Bessel correction (0 with fewer than two
// observations).
func (s *Weighted) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	denom := s.sumw - s.sumw2/s.sumw
	if denom <= 0 {
		return 0
	}
	return math.Sqrt(s.m2 / denom)
}

// CI95 reports the half-width of the normal-approximation 95% confidence
// interval on the weighted mean: 1.96·s/√n_eff. With fewer than two
// observations the spread is unknowable and CI95 is 0.
func (s *Weighted) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	neff := s.EffectiveN()
	if neff <= 0 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(neff)
}
