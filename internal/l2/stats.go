package l2

import (
	"tlc/internal/metrics"
	"tlc/internal/stats"
)

// Stats is the access bookkeeping common to every L2 design. Designs embed
// it and add their design-specific counters (DNUCA promotions, TLC link
// business).
type Stats struct {
	// Loads and Stores count requests by type.
	Loads, Stores stats.Counter
	// Hits and Misses count load outcomes.
	Hits, Misses stats.Counter
	// PredictableLookups counts loads resolving at their nominal latency.
	PredictableLookups stats.Counter
	// BanksTouched accumulates banks accessed across all requests.
	BanksTouched stats.Counter
	// Lookup is the load resolution-latency distribution (Figure 6).
	Lookup *stats.Histogram
}

// NewStats returns zeroed stats with a lookup histogram sized for the
// latencies any design here can produce (search chains included).
func NewStats() Stats {
	return Stats{Lookup: stats.NewHistogram(512)}
}

// Register publishes the common L2 counters into the registry under the
// "l2." prefix. Designs call this from their own metric registration and
// add their design-specific names alongside.
func (s *Stats) Register(r *metrics.Registry) {
	r.Counter("l2.loads", &s.Loads)
	r.Counter("l2.stores", &s.Stores)
	r.Counter("l2.hits", &s.Hits)
	r.Counter("l2.misses", &s.Misses)
	r.Counter("l2.predictable_lookups", &s.PredictableLookups)
	r.Counter("l2.banks_touched", &s.BanksTouched)
	r.Histogram("l2.lookup", s.Lookup)
}

// MissesPer1K reports load misses per thousand of the given instruction
// count (Table 6, columns 3-4).
func (s *Stats) MissesPer1K(instructions uint64) float64 {
	return stats.PerKilo(s.Misses.Value(), instructions)
}

// PredictablePct reports the predictable-lookup percentage over loads
// (Table 6, columns 7-8).
func (s *Stats) PredictablePct() float64 {
	return 100 * stats.Ratio(s.PredictableLookups.Value(), s.Loads.Value())
}

// BanksPerRequest reports mean banks accessed per request (Table 9).
func (s *Stats) BanksPerRequest() float64 {
	return stats.Ratio(s.BanksTouched.Value(), s.Loads.Value()+s.Stores.Value())
}

// RecordLoad folds one load outcome into the stats.
func (s *Stats) RecordLoad(latency uint64, hit, predictable bool, banks int) {
	s.Loads.Inc()
	if hit {
		s.Hits.Inc()
	} else {
		s.Misses.Inc()
	}
	if predictable {
		s.PredictableLookups.Inc()
	}
	s.BanksTouched.Add(uint64(banks))
	s.Lookup.Observe(latency)
}

// RecordStore folds one store into the stats. A store that allocates an
// absent block counts as a miss: the paper's exclusive write-back designs
// never check tags on stores, but the allocation still represents a block
// the cache did not hold.
func (s *Stats) RecordStore(hit bool, banks int) {
	s.Stores.Inc()
	if hit {
		s.Hits.Inc()
	} else {
		s.Misses.Inc()
	}
	s.BanksTouched.Add(uint64(banks))
}
