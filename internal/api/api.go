// Package api defines the wire types of the tlcd experiment service: the
// request and record shapes POST /v1/runs exchanges, shared by the server
// (internal/server), the typed client (internal/client), and cmd/tlcbench —
// whose artifact run records use the identical schema, so a served run
// record and a CLI artifact record are interchangeable JSON.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"tlc"
)

// Decode reads one JSON request body into v and fails closed: a field v
// does not declare (a misspelled or retired option, say) or data after the
// first value is an error rather than silently ignored. Every service
// endpoint that accepts a body decodes through it; response decoding in
// internal/client stays tolerant so newer servers can add record fields.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the request body")
	}
	return nil
}

// RunOptions is the serializable subset of tlc.Options a request may set.
// Zero-valued WarmInstructions, RunInstructions, and Seed take the
// tlc.DefaultOptions values (automatic warm-up, 2 M timed instructions,
// seed 1); every other zero field means exactly zero. The non-serializable
// Options fields (Checkpoints, OnMetrics, Cancel) are the server's
// business: they change how a run executes, never what it computes.
type RunOptions struct {
	WarmInstructions uint64  `json:"warm_instructions,omitempty"`
	RunInstructions  uint64  `json:"run_instructions,omitempty"`
	Seed             int64   `json:"seed,omitempty"`
	WarmSeed         int64   `json:"warm_seed,omitempty"`
	UseDRAM          bool    `json:"use_dram,omitempty"`
	BitErrorRate     float64 `json:"bit_error_rate,omitempty"`
	SampleIntervals  int     `json:"sample_intervals,omitempty"`
	SampleLength     uint64  `json:"sample_length,omitempty"`
	PhaseWindows     int     `json:"phase_windows,omitempty"`
	PhaseClusters    int     `json:"phase_clusters,omitempty"`

	// CMP axis: Cores 0 or 1 is the single-core machine (bit-identical to
	// requests that never set it); 2..64 runs N cores over the shared L2
	// with MSI-coherent private L1s. The sharing fields shape the cross-core
	// reference pattern and are meaningful only when Cores > 1.
	Cores          int     `json:"cores,omitempty"`
	SharingPattern string  `json:"sharing_pattern,omitempty"`
	SharedMB       float64 `json:"shared_mb,omitempty"`
	SharedFrac     float64 `json:"shared_frac,omitempty"`
}

// Options expands the wire options into a runnable tlc.Options, applying
// the documented defaults.
func (o RunOptions) Options() tlc.Options {
	opt := tlc.DefaultOptions()
	if o.WarmInstructions != 0 {
		opt.WarmInstructions = o.WarmInstructions
	}
	if o.RunInstructions != 0 {
		opt.RunInstructions = o.RunInstructions
	}
	if o.Seed != 0 {
		opt.Seed = o.Seed
	}
	opt.WarmSeed = o.WarmSeed
	opt.UseDRAM = o.UseDRAM
	opt.BitErrorRate = o.BitErrorRate
	opt.SampleIntervals = o.SampleIntervals
	if o.SampleLength != 0 {
		opt.SampleLength = o.SampleLength
	}
	opt.PhaseWindows = o.PhaseWindows
	opt.PhaseClusters = o.PhaseClusters
	opt.Cores = o.Cores
	opt.Sharing = tlc.SharingSpec{
		Pattern:    o.SharingPattern,
		SharedMB:   o.SharedMB,
		SharedFrac: o.SharedFrac,
	}
	return opt
}

// FromOptions projects the serializable fields of a tlc.Options.
func FromOptions(opt tlc.Options) RunOptions {
	return RunOptions{
		WarmInstructions: opt.WarmInstructions,
		RunInstructions:  opt.RunInstructions,
		Seed:             opt.Seed,
		WarmSeed:         opt.WarmSeed,
		UseDRAM:          opt.UseDRAM,
		BitErrorRate:     opt.BitErrorRate,
		SampleIntervals:  opt.SampleIntervals,
		SampleLength:     opt.SampleLength,
		PhaseWindows:     opt.PhaseWindows,
		PhaseClusters:    opt.PhaseClusters,
		Cores:            opt.Cores,
		SharingPattern:   opt.Sharing.Pattern,
		SharedMB:         opt.Sharing.SharedMB,
		SharedFrac:       opt.Sharing.SharedFrac,
	}
}

// RunRequest is the POST /v1/runs body.
type RunRequest struct {
	Design    string     `json:"design"`
	Benchmark string     `json:"benchmark"`
	Options   RunOptions `json:"options"`
}

// Validate resolves the design name, checks the benchmark exists, and
// rejects options a run would reject (core count out of 1..64, unknown
// sharing pattern, a sampling plan that does not fit the run) with the same
// one-line errors a local run would produce.
func (r RunRequest) Validate() (tlc.Design, error) {
	d, err := ParseDesign(r.Design)
	if err != nil {
		return d, err
	}
	known := false
	for _, b := range tlc.Benchmarks() {
		if b == r.Benchmark {
			known = true
			break
		}
	}
	if !known {
		return d, fmt.Errorf("api: unknown benchmark %q", r.Benchmark)
	}
	if err := r.Options.Options().Validate(); err != nil {
		return d, err
	}
	return d, nil
}

// ParseDesign resolves a design by its String name ("SNUCA2", "DNUCA",
// "TLC", "TLC-opt1000", ...).
func ParseDesign(name string) (tlc.Design, error) {
	for _, d := range tlc.Designs() {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("api: unknown design %q", name)
}

// RunRecord is one completed run: the schema of cmd/tlcbench's artifact
// run records, extended with service-only fields (ID, Cached, Coalesced,
// Result) that the CLI artifacts simply omit.
type RunRecord struct {
	// ID is the run's content address (tlc.RunKey); set by the service.
	ID        string  `json:"id,omitempty"`
	Design    string  `json:"design"`
	Benchmark string  `json:"benchmark"`
	Cycles    uint64  `json:"cycles"`
	IPC       float64 `json:"ipc"`

	MeanLookup      float64 `json:"mean_lookup_cycles"`
	MissesPer1K     float64 `json:"misses_per_1k"`
	PredictablePct  float64 `json:"predictable_pct"`
	LinkUtilization float64 `json:"link_utilization"`
	NetworkPowerW   float64 `json:"network_power_w"`
	WallMS          float64 `json:"wall_ms"`

	// Sampled-mode confidence half-widths (95%); omitted for full runs.
	CyclesCI      float64 `json:"cycles_ci,omitempty"`
	MeanLookupCI  float64 `json:"mean_lookup_ci,omitempty"`
	MissesPer1KCI float64 `json:"misses_per_1k_ci,omitempty"`

	// Metrics is the run's full registry snapshot — every counter, gauge,
	// and histogram each simulation layer registered.
	Metrics tlc.MetricsSnapshot `json:"metrics,omitempty"`

	// Result carries the complete tlc.Result so remote callers reconstruct
	// exactly what an in-process run returned; set by the service.
	Result *tlc.Result `json:"result,omitempty"`

	// Cached marks a response served from the result cache (no simulation
	// work); Coalesced marks one that joined an identical in-flight run.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
}

// RecordFrom builds a run record from an in-process result. sres may be nil
// for full (non-sampled) runs.
func RecordFrom(res tlc.Result, sres *tlc.SampledResult, snap tlc.MetricsSnapshot, wallMS float64) RunRecord {
	rec := RunRecord{
		Design:          res.Design.String(),
		Benchmark:       res.Benchmark,
		Cycles:          res.Cycles,
		IPC:             res.IPC,
		MeanLookup:      res.MeanLookup,
		MissesPer1K:     res.MissesPer1K,
		PredictablePct:  res.PredictablePct,
		LinkUtilization: res.LinkUtilization,
		NetworkPowerW:   res.NetworkPowerW,
		WallMS:          wallMS,
		Metrics:         snap,
	}
	if sres != nil {
		rec.CyclesCI = sres.CyclesCI
		rec.MeanLookupCI = sres.MeanLookupCI
		rec.MissesPer1KCI = sres.MissesPer1KCI
	}
	return rec
}

// ToResult reconstructs the run's tlc.Result. Records produced by the
// service carry the full Result verbatim; for records without one (a CLI
// artifact read back), the headline fields are projected into a partial
// Result.
func (r RunRecord) ToResult() (tlc.Result, error) {
	if r.Result != nil {
		return *r.Result, nil
	}
	d, err := ParseDesign(r.Design)
	if err != nil {
		return tlc.Result{}, err
	}
	return tlc.Result{
		Design:          d,
		Benchmark:       r.Benchmark,
		Cycles:          r.Cycles,
		IPC:             r.IPC,
		MeanLookup:      r.MeanLookup,
		MissesPer1K:     r.MissesPer1K,
		PredictablePct:  r.PredictablePct,
		LinkUtilization: r.LinkUtilization,
		NetworkPowerW:   r.NetworkPowerW,
	}, nil
}

// SweepRequest is the POST /v1/sweeps body: an explicit list of grid
// points. A sweep is one request however large the grid — the server owns
// scheduling and backpressure internally and streams points back as they
// land, so the client never runs a retry loop per point.
type SweepRequest struct {
	Points []RunRequest `json:"points"`
}

// Validate checks every point, reporting the first invalid one by index.
func (s SweepRequest) Validate() error {
	if len(s.Points) == 0 {
		return fmt.Errorf("api: sweep has no points")
	}
	for i, p := range s.Points {
		if _, err := p.Validate(); err != nil {
			return fmt.Errorf("api: sweep point %d: %w", i, err)
		}
	}
	return nil
}

// SweepPoint is one NDJSON line of a streaming sweep response: the index
// of the grid point in the request plus either its record or its error.
// Lines arrive in completion order, not request order — Index is the join
// key.
type SweepPoint struct {
	Index  int        `json:"index"`
	Record *RunRecord `json:"record,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// Error is the JSON error body every non-2xx service response carries.
type Error struct {
	Error string `json:"error"`
}
