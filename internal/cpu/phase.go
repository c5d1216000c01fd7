package cpu

// Phase profiling: a cheap functional pass over the timed stream that
// slices it into fixed instruction windows and extracts one feature vector
// per window for phase clustering (internal/sample). The profiler runs at
// warm-pass speed — shadow tag arrays, no timing model — and consumes the
// stream through the same batched delivery protocol the warm fast path
// uses, so a profiled-and-rewound generator is bit-identical to one that
// never profiled.

import (
	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/mem"
)

// PhaseFeatures are one profiling window's raw counts. The derived feature
// vector (Vector) is what the clusterer consumes.
type PhaseFeatures struct {
	// Instr is the number of instructions the window consumed.
	Instr uint64
	// MemOps and Stores count the window's memory operations.
	MemOps, Stores uint64
	// L1Misses counts shadow-L1 misses; L2Misses the subset that also
	// missed the shadow L2 (a footprint/reuse proxy).
	L1Misses, L2Misses uint64
}

// Shadow-model latency weights for the CPI proxy: an L1 miss that hits the
// L2 costs roughly an uncontended lookup, an L2 miss the flat memory
// latency. The proxy only needs to rank windows for clustering and scale
// within-cluster spread; the detailed intervals supply the calibrated CPI.
const (
	proxyL2Cycles  = 20
	proxyMemCycles = 300
)

// Add accumulates other into f (CMP profiling sums per-core windows).
func (f *PhaseFeatures) Add(other PhaseFeatures) {
	f.Instr += other.Instr
	f.MemOps += other.MemOps
	f.Stores += other.Stores
	f.L1Misses += other.L1Misses
	f.L2Misses += other.L2Misses
}

// CPIProxy is the window's crude cycles-per-instruction estimate from the
// shadow-miss counts alone.
func (f PhaseFeatures) CPIProxy() float64 {
	if f.Instr == 0 {
		return 0
	}
	return 1 +
		proxyL2Cycles*float64(f.L1Misses)/float64(f.Instr) +
		proxyMemCycles*float64(f.L2Misses)/float64(f.Instr)
}

// Feature-vector column indices for Vector's layout. Consumers that read
// individual columns out of a sample.Profile (the phase calibration reads
// the shadow L1 miss rate; the CI heuristic reads the CPI proxy) index by
// these names rather than magic numbers.
const (
	FeatMemFrac = iota
	FeatStoreFrac
	FeatL1MissRate
	FeatL2MissRate
	FeatCPIProxy
	FeatCols
)

// Vector derives the per-window feature vector: memory intensity, store
// fraction, shadow L1/L2 miss rates per instruction, and the CPI proxy.
// The CPI proxy is by convention the LAST column — the phase estimator
// reads within-cluster spread from it (sample.Profile).
func (f PhaseFeatures) Vector() []float64 {
	if f.Instr == 0 {
		return []float64{0, 0, 0, 0, 0}
	}
	instr := float64(f.Instr)
	storeFrac := 0.0
	if f.MemOps > 0 {
		storeFrac = float64(f.Stores) / float64(f.MemOps)
	}
	return []float64{
		float64(f.MemOps) / instr,
		storeFrac,
		float64(f.L1Misses) / instr,
		float64(f.L2Misses) / instr,
		f.CPIProxy(),
	}
}

// PhaseProfiler extracts window features by driving the stream's memory
// references through shadow L1/L2 tag arrays (the run machine's geometry,
// LRU replacement, no coherence and no timing). Build one per stream being
// profiled; it is not safe for concurrent use.
type PhaseProfiler struct {
	l1  *cache.SetAssoc
	l2  *cache.SetAssoc
	buf []MemRef
}

// NewPhaseProfiler builds a profiler with shadow caches matching sys.
func NewPhaseProfiler(sys config.System) *PhaseProfiler {
	return &PhaseProfiler{
		l1:  cache.NewSetAssoc(sys.L1Bytes/mem.BlockBytes/sys.L1Assoc, sys.L1Assoc),
		l2:  cache.NewSetAssoc(sys.L2Bytes/mem.BlockBytes/sys.L2Assoc, sys.L2Assoc),
		buf: make([]MemRef, 4096),
	}
}

// Window consumes exactly n instructions from s through NextMems and
// reports the window's feature counts.
func (p *PhaseProfiler) Window(s Stream, n uint64) PhaseFeatures {
	var f PhaseFeatures
	for f.Instr < n {
		cnt, consumed := s.NextMems(p.buf, n-f.Instr)
		f.Instr += consumed
		for i := 0; i < cnt; i++ {
			p.observe(&f, p.buf[i].Block, p.buf[i].Store)
		}
	}
	return f
}

// observe runs one memory reference through the shadow hierarchy.
func (p *PhaseProfiler) observe(f *PhaseFeatures, b mem.Block, store bool) {
	f.MemOps++
	if store {
		f.Stores++
	}
	if _, hit, _, _ := p.l1.TouchOrInsertAt(b); !hit {
		f.L1Misses++
		if _, hit2, _, _ := p.l2.TouchOrInsertAt(b); !hit2 {
			f.L2Misses++
		}
	}
}
