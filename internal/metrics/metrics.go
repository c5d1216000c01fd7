// Package metrics is the simulation's instrumentation spine: a typed
// registry of named counters, gauges, and histograms every layer publishes
// into. Names are hierarchical, dot-separated, lowercase ("l2.lookup",
// "noc.spine.flits", "cpu.rob.stalls", "dram.rowhits", "ecc.retries"); the
// layer owning the counter owns the prefix.
//
// The registry is read-side only with respect to the hot path: layers
// register at construction time and keep incrementing their own fields
// (stats.Counter pointers, raw uint64 tallies) exactly as before, so metric
// publication adds zero allocations and zero work per access. The registry
// evaluates those fields lazily — through closures — when a snapshot or a
// read is requested, which happens once per run (or once per sampled
// interval), never per event.
//
// Concurrency: a registry instance belongs to one simulation run, which is
// single-goroutine; registration and reads are serialized by construction.
// The internal mutex guards the registration maps so that cross-goroutine
// readers (a Suite aggregating finished runs, a -metrics dump racing a
// progress hook) see consistent map state; the counter values themselves
// are published safely because every cross-goroutine hand-off goes through
// a Snapshot taken after the run's goroutine finished.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"tlc/internal/sim"
	"tlc/internal/stats"
)

// Registry holds one run's named metrics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]func() uint64
	gauges   map[string]func(now sim.Time) float64
	hists    map[string]*stats.Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		gauges:   make(map[string]func(now sim.Time) float64),
		hists:    make(map[string]*stats.Histogram),
	}
}

// checkName panics on empty or duplicate names: registration happens at
// construction time, so a collision is a programming error, not a runtime
// condition to tolerate.
func (r *Registry) checkName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
}

// Counter registers an existing stats.Counter under name. The caller keeps
// incrementing the counter directly; the registry reads it on demand.
func (r *Registry) Counter(name string, c *stats.Counter) {
	r.CounterFunc(name, c.Value)
}

// CounterFunc registers a counter read through fn — the adapter for raw
// uint64 tallies a layer keeps as plain struct fields.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	r.counters[name] = fn
}

// Gauge registers a derived value evaluated at read time. Gauges receive
// the simulated clock so cycle-integrated metrics (power, utilization) can
// normalize over the run window.
func (r *Registry) Gauge(name string, fn func(now sim.Time) float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	r.gauges[name] = fn
}

// Histogram registers an existing histogram under name. The caller keeps
// observing into it directly.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	r.hists[name] = h
}

// Resource registers a sim.Resource's aggregate counters under the given
// prefix: <prefix>.busy_cycles, <prefix>.reservations, <prefix>.waits, and
// <prefix>.wait_cycles. It lives here rather than in package sim so the
// event-kernel layer stays import-free of the instrumentation spine.
func (r *Registry) Resource(prefix string, res *sim.Resource) {
	r.CounterFunc(prefix+".busy_cycles", func() uint64 { return uint64(res.BusyCycles()) })
	r.CounterFunc(prefix+".reservations", res.Reservations)
	r.CounterFunc(prefix+".waits", res.Waits)
	r.CounterFunc(prefix+".wait_cycles", func() uint64 { return uint64(res.WaitCycles()) })
}

// CounterValue reads a registered counter; absent names read 0, so shared
// reporting code can ask for design-specific counters unconditionally.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	fn := r.counters[name]
	r.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// GaugeValue evaluates a registered gauge at the given clock; absent names
// read 0.
func (r *Registry) GaugeValue(name string, now sim.Time) float64 {
	r.mu.Lock()
	fn := r.gauges[name]
	r.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn(now)
}

// HistogramMean reads a registered histogram's exact mean; absent names
// read 0.
func (r *Registry) HistogramMean(name string) float64 {
	r.mu.Lock()
	h := r.hists[name]
	r.mu.Unlock()
	if h == nil {
		return 0
	}
	return h.Mean()
}

// CounterNames lists the registered counter names in sorted order — the
// stable iteration order sampled mode uses for per-interval deltas.
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AppendCounterValues appends the current value of each named counter to
// dst and returns it — the allocation-bounded bulk read behind sampled
// mode's per-interval snapshots. Absent names append 0.
func (r *Registry) AppendCounterValues(dst []uint64, names []string) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		if fn := r.counters[n]; fn != nil {
			dst = append(dst, fn())
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// Metric is one snapshotted value.
type Metric struct {
	// Name is the hierarchical metric name.
	Name string `json:"name"`
	// Kind is "counter", "gauge", or "histogram".
	Kind string `json:"kind"`
	// Value is the metric's scalar reading: the count for counters, the
	// evaluated value for gauges, the mean for histograms.
	Value float64 `json:"value"`
	// Count is the exact integer count (counters and histogram sample
	// counts; zero for gauges).
	Count uint64 `json:"count,omitempty"`
	// Histogram shape, present only for Kind == "histogram".
	Min uint64 `json:"min,omitempty"`
	Max uint64 `json:"max,omitempty"`
	P50 uint64 `json:"p50,omitempty"`
	P95 uint64 `json:"p95,omitempty"`
	P99 uint64 `json:"p99,omitempty"`
}

// Snapshot is a point-in-time reading of every registered metric, sorted
// by name. It shares no state with the registry: safe to retain, compare,
// and serialize after the run advances or ends.
type Snapshot []Metric

// Snapshot reads every metric at the given simulated clock.
func (r *Registry) Snapshot(now sim.Time) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, fn := range r.counters {
		v := fn()
		out = append(out, Metric{Name: n, Kind: "counter", Value: float64(v), Count: v})
	}
	for n, fn := range r.gauges {
		out = append(out, Metric{Name: n, Kind: "gauge", Value: fn(now)})
	}
	for n, h := range r.hists {
		out = append(out, Metric{
			Name: n, Kind: "histogram",
			Value: h.Mean(), Count: h.Count(),
			Min: h.Min(), Max: h.Max(),
			P50: h.Percentile(0.50), P95: h.Percentile(0.95), P99: h.Percentile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value looks up a metric by name in the snapshot. Registry-produced
// snapshots are sorted and answer via binary search; a snapshot that
// arrived unsorted (deserialized from an artifact whose array was
// reassembled out of order) still answers correctly through the linear
// fallback.
func (s Snapshot) Value(name string) (float64, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value, true
	}
	for _, m := range s {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// WriteJSON serializes the snapshot, indented, to w.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
