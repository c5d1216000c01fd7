package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank percentile of vs: the smallest sample with
// at least p% of the samples at or below it. It does not modify vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond counts the samples strictly above the nearest-rank percentile p.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile names the tail reported for n samples: p99 when it has at
// least ten samples beyond it (serve-mix's requests), else p85 (a 72-cell
// grid), else the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 85} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
