package sample

// Phase-aware representative sampling: instead of N uniform detailed
// intervals, a cheap profiling pass slices the timed region into fixed
// instruction windows, extracts one feature vector per window
// (cpu.PhaseProfiler), k-means clusters the windows into program phases,
// and Profile.Plan times one representative interval per cluster — each
// cluster a stratum weighted by its instruction count, in the spirit of
// SimPoint-style interval selection (PAPERS.md: "Improving the
// Representativeness of Simulation Intervals for the Cache Memory
// System"). Everything here is bit-deterministic for a fixed profile key:
// the k-means seeding derives from the key via splitmix64, iteration
// bounds are fixed, and every tie breaks toward the lowest index — so a
// recomputed profile selects the same intervals as a cached one.

import (
	"fmt"
	"hash/fnv"
	"math"

	"tlc/internal/stats"
)

// ProfileFormat versions the phase-profile layout. Bump it whenever the
// feature vector, clustering, or selection semantics change, so stale
// cached profiles miss instead of selecting wrong intervals.
const ProfileFormat = 1

// Profile is a workload's clustered phase profile: per-window feature
// vectors, their cluster assignment, and the selected representative
// window per cluster. It is design-independent (features come from shadow
// caches of the fixed system geometry), so one profile serves every design
// of a benchmark — and, cached by content key, every later run. All fields
// are exported for gob/JSON round-tripping; interval selection rides only
// on the integer fields, so a profile survives any wire encoding intact.
type Profile struct {
	// Version is ProfileFormat at build time.
	Version int
	// Key is the content key the profile was built for (it also seeded the
	// clustering).
	Key string
	// Total is the timed instruction count profiled (per core for CMP).
	Total uint64
	// Windows and Clusters echo the Options the profile was built with.
	Windows  int
	Clusters int
	// Features holds one row per window; the last column is the CPI proxy
	// (cpu.PhaseFeatures.Vector).
	Features [][]float64
	// Instr is the instructions consumed by each window (the window-length
	// split of Total).
	Instr []uint64
	// Assign maps each window to its cluster (post-compaction ids).
	Assign []int
	// Reps[k] is cluster k's representative window, strictly ascending —
	// clusters are relabeled by representative position, so executing
	// Reps in order is executing clusters in order.
	Reps []int
	// Weights[k] is cluster k's total instruction count; the weights sum
	// to Total.
	Weights []uint64
}

// Check validates a (possibly fetched) profile against the run it is about
// to steer. A mismatch means the profile came from a different
// configuration or format era and must be recomputed.
func (p Profile) Check(total uint64, opt Options) error {
	if p.Version != ProfileFormat {
		return fmt.Errorf("sample: profile version %d, want %d", p.Version, ProfileFormat)
	}
	if p.Total != total {
		return fmt.Errorf("sample: profile covers %d instructions, run has %d", p.Total, total)
	}
	if p.Windows != opt.PhaseWindows || p.Clusters != opt.PhaseClusters {
		return fmt.Errorf("sample: profile shape %d windows/%d clusters, options want %d/%d",
			p.Windows, p.Clusters, opt.PhaseWindows, opt.PhaseClusters)
	}
	if len(p.Features) != p.Windows || len(p.Instr) != p.Windows || len(p.Assign) != p.Windows {
		return fmt.Errorf("sample: profile arrays sized %d/%d/%d, want %d windows",
			len(p.Features), len(p.Instr), len(p.Assign), p.Windows)
	}
	if len(p.Reps) == 0 || len(p.Reps) > p.Clusters || len(p.Weights) != len(p.Reps) {
		return fmt.Errorf("sample: profile has %d representatives/%d weights for %d clusters",
			len(p.Reps), len(p.Weights), p.Clusters)
	}
	prev := -1
	for k, w := range p.Reps {
		if w <= prev || w >= p.Windows {
			return fmt.Errorf("sample: representative %d of cluster %d out of order or range", w, k)
		}
		prev = w
	}
	for w, k := range p.Assign {
		if k < 0 || k >= len(p.Reps) {
			return fmt.Errorf("sample: window %d assigned to cluster %d of %d", w, k, len(p.Reps))
		}
	}
	return nil
}

// WindowLengths splits total instructions into n windows: total/n each,
// with the remainder spread one instruction at a time over the first
// total%n windows. Profiling and phased execution both use this split, so
// window boundaries always agree.
func WindowLengths(total uint64, n int) []uint64 {
	base, extra := total/uint64(n), total%uint64(n)
	lens := make([]uint64, n)
	for i := range lens {
		lens[i] = base
		if uint64(i) < extra {
			lens[i]++
		}
	}
	return lens
}

// phaseRNG is a splitmix64 stream: tiny, seedable, and deterministic —
// the clustering's only randomness source, seeded from the profile key so
// equal keys cluster identically everywhere.
type phaseRNG uint64

func newPhaseRNG(key string) *phaseRNG {
	h := fnv.New64a()
	h.Write([]byte(key))
	r := phaseRNG(h.Sum64())
	return &r
}

func (r *phaseRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 draws uniformly from [0,1) with 53 bits of precision.
func (r *phaseRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn draws uniformly from [0,n).
func (r *phaseRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}

// kmeansIters bounds the Lloyd iterations; assignments converge long
// before this on the window counts phase mode uses, and the fixed bound
// keeps worst-case clustering cost deterministic.
const kmeansIters = 64

// BuildProfile clusters per-window feature rows into a phase profile.
// feats holds one row per window (equal lengths, CPI proxy last); instr
// the per-window instruction counts (summing to total). opt must have
// passed Validate. The result is bit-deterministic in (key, inputs).
func BuildProfile(key string, total uint64, opt Options, feats [][]float64, instr []uint64) Profile {
	w := opt.PhaseWindows
	k := opt.PhaseClusters
	norm := normalize(feats)
	assign := kmeans(norm, k, newPhaseRNG(key))

	// Compact away empty clusters and pick each survivor's representative:
	// the member window closest to the cluster's feature mean (lowest
	// index on ties).
	type clusterInfo struct {
		rep    int
		weight uint64
		old    int
	}
	var clusters []clusterInfo
	for c := 0; c < k; c++ {
		var members []int
		for wi, a := range assign {
			if a == c {
				members = append(members, wi)
			}
		}
		if len(members) == 0 {
			continue
		}
		centroid := meanOf(norm, members)
		rep, best := members[0], math.Inf(1)
		var weight uint64
		for _, wi := range members {
			weight += instr[wi]
			if d := sqDist(norm[wi], centroid); d < best {
				best, rep = d, wi
			}
		}
		clusters = append(clusters, clusterInfo{rep: rep, weight: weight, old: c})
	}
	// Relabel clusters by representative position: Reps comes out strictly
	// ascending, so phased execution visits clusters in window order and
	// interval index k is cluster k.
	for i := 1; i < len(clusters); i++ {
		for j := i; j > 0 && clusters[j].rep < clusters[j-1].rep; j-- {
			clusters[j], clusters[j-1] = clusters[j-1], clusters[j]
		}
	}
	remap := make(map[int]int, len(clusters))
	reps := make([]int, len(clusters))
	weights := make([]uint64, len(clusters))
	for i, c := range clusters {
		remap[c.old] = i
		reps[i] = c.rep
		weights[i] = c.weight
	}
	for wi := range assign {
		assign[wi] = remap[assign[wi]]
	}
	return Profile{
		Version:  ProfileFormat,
		Key:      key,
		Total:    total,
		Windows:  w,
		Clusters: k,
		Features: feats,
		Instr:    instr,
		Assign:   assign,
		Reps:     reps,
		Weights:  weights,
	}
}

// normalize z-scores each feature column (population moments); a constant
// column normalizes to zero so it cannot dominate distances.
func normalize(feats [][]float64) [][]float64 {
	n := len(feats)
	cols := len(feats[0])
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	for c := 0; c < cols; c++ {
		var mean float64
		for _, row := range feats {
			mean += row[c]
		}
		mean /= float64(n)
		var varsum float64
		for _, row := range feats {
			d := row[c] - mean
			varsum += d * d
		}
		std := math.Sqrt(varsum / float64(n))
		if std == 0 {
			continue
		}
		for i, row := range feats {
			out[i][c] = (row[c] - mean) / std
		}
	}
	return out
}

// kmeans runs k-means++ seeding plus bounded Lloyd iterations. Every
// data-dependent choice is deterministic: the rng is the caller's seeded
// stream and ties break toward the lowest index.
func kmeans(points [][]float64, k int, rng *phaseRNG) []int {
	n := len(points)
	cols := len(points[0])
	centroids := make([][]float64, 0, k)

	// k-means++ seeding: first centroid uniform, later ones with
	// probability proportional to squared distance from the nearest
	// chosen centroid.
	first := rng.intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	for len(centroids) < k {
		var totalD float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			totalD += best
		}
		pick := -1
		if totalD > 0 {
			draw := rng.float64() * totalD
			var cum float64
			for i, d := range d2 {
				cum += d
				if cum > draw && d > 0 {
					pick = i
					break
				}
			}
			if pick == -1 { // rounding left the draw past the last mass
				for i := n - 1; i >= 0; i-- {
					if d2[i] > 0 {
						pick = i
						break
					}
				}
			}
		}
		if pick == -1 {
			// All remaining windows coincide with a centroid: duplicate
			// centroids produce empty clusters, which compaction drops.
			pick = rng.intn(n)
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}

	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([][]float64, k)
	for c := range sums {
		sums[c] = make([]float64, cols)
	}
	for iter := 0; iter < kmeansIters; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := sqDist(p, cent); d < bestD {
					bestD, best = d, c
				}
			}
			if iter == 0 || assign[i] != best {
				changed = true
			}
			assign[i] = best
		}
		if !changed {
			break
		}
		for c := range centroids {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // empty cluster keeps its centroid
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return assign
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func meanOf(points [][]float64, idx []int) []float64 {
	m := make([]float64, len(points[0]))
	for _, i := range idx {
		for j, v := range points[i] {
			m[j] += v
		}
	}
	for j := range m {
		m[j] /= float64(len(idx))
	}
	return m
}

// Plan schedules the profile's phase sampling: the windows run in order,
// each cluster representative times its whole window in detail as its
// cluster's stratum, and every other window fast-forwards, one Warm per
// window. The stream advances exactly Total instructions, as a uniform run
// of the same total does. Timing whole windows keeps the measured span
// congruent with the profiled window, so the profile's per-window features
// and the calibration covariates describe precisely what was measured.
// Each stratum weighs its cluster's instructions, and its prior CPI spread
// is the standard error of its windows' CPI-proxy values (zero for a
// single-window cluster). The profile must have passed Check.
func (p Profile) Plan() Plan {
	col := len(p.Features[0]) - 1 // CPI proxy column
	plan := Plan{
		Weights:  p.Weights,
		ProxySE:  make([]float64, len(p.Reps)),
		ProxyRep: make([]float64, len(p.Reps)),
	}
	for k, rep := range p.Reps {
		var s stats.Sample
		for w, a := range p.Assign {
			if a == k {
				s.Observe(p.Features[w][col])
			}
		}
		if s.N() >= 2 {
			plan.ProxySE[k] = s.StdDev() / math.Sqrt(float64(s.N()))
		}
		plan.ProxyRep[k] = p.Features[rep][col]
	}
	k := 0
	for w, n := range WindowLengths(p.Total, p.Windows) {
		step := Step{Warm: n, Repeat: 1}
		if k < len(p.Reps) && p.Reps[k] == w {
			step = Step{Detail: n, Stratum: k, Repeat: 1}
			k++
		}
		plan.Steps = append(plan.Steps, step)
	}
	return plan
}
