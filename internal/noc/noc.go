// Package noc models the 2-D switched mesh the NUCA designs use to reach
// their banks (Figure 1): a horizontal spine along the cache controller
// edge plus one vertical link chain per bank column, built from
// conventional repeated RC wires with a switch at every bank.
//
// Messages are routed wormhole-style: the head flit pays one segment
// latency per hop, and every segment on the path is occupied for the
// message's full flit count, which is where DNUCA's link contention —
// search traffic, migration swaps, and insertion fills — comes from.
package noc

import (
	"fmt"

	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Dir distinguishes the two unidirectional link sets.
type Dir int

const (
	// ToBank is the request direction, controller to bank.
	ToBank Dir = iota
	// ToController is the response direction, bank to controller.
	ToController
)

// Config describes one mesh floorplan.
type Config struct {
	// Cols and Rows give the bank grid. The controller sits below the
	// grid at the horizontal center.
	Cols, Rows int
	// ColDist[c] is the number of spine segments between the controller
	// and column c's injection point (0 = adjacent).
	ColDist []int
	// SpineSegLat is the latency of one spine segment, cycles.
	SpineSegLat sim.Time
	// VertReqLat[r] / VertRespLat[r] are the per-segment latencies of the
	// vertical hop from row r-1 to row r in each direction. Splitting the
	// directions lets a floorplan with non-integer per-hop delay (SNUCA2's
	// 1.5-cycle bank pitch) keep integer cycles per direction while the
	// round trip sums exactly.
	VertReqLat, VertRespLat []sim.Time
	// IngressLat is charged once on the request path for controller
	// injection.
	IngressLat sim.Time
	// FlitBytes is the link width: a message of N bytes occupies each
	// segment for ceil(N/FlitBytes) cycles (+1 header flit).
	FlitBytes int
	// SpineSegMM and VertSegMM are the physical segment lengths, used by
	// the energy accounting.
	SpineSegMM, VertSegMM float64
}

func (c Config) validate() {
	if c.Cols <= 0 || c.Rows <= 0 || len(c.ColDist) != c.Cols {
		panic(fmt.Sprintf("noc: bad grid %dx%d with %d column distances", c.Cols, c.Rows, len(c.ColDist)))
	}
	if len(c.VertReqLat) != c.Rows || len(c.VertRespLat) != c.Rows {
		panic("noc: vertical latency tables must have one entry per row")
	}
	if c.FlitBytes <= 0 {
		panic("noc: flit width must be positive")
	}
}

// Mesh is the instantiated network with per-segment contention state.
type Mesh struct {
	cfg Config
	// spine[dir][side][seg] — side 0 = left of controller, 1 = right.
	spine [2][2][]sim.Resource
	// vert[dir][col][row]
	vert [2][][]sim.Resource

	// FlitSegments counts flit-segment traversals, split by segment kind,
	// for the dynamic power roll-up.
	SpineFlitSegs, VertFlitSegs uint64
	// HeaderFlits counts routed messages (one header each).
	Messages uint64
}

// New builds a mesh for the given floorplan.
func New(cfg Config) *Mesh {
	cfg.validate()
	m := &Mesh{cfg: cfg}
	maxSpine := 0
	for _, d := range cfg.ColDist {
		if d > maxSpine {
			maxSpine = d
		}
	}
	for dir := 0; dir < 2; dir++ {
		for side := 0; side < 2; side++ {
			m.spine[dir][side] = make([]sim.Resource, maxSpine)
		}
		m.vert[dir] = make([][]sim.Resource, cfg.Cols)
		for c := 0; c < cfg.Cols; c++ {
			m.vert[dir][c] = make([]sim.Resource, cfg.Rows)
		}
	}
	return m
}

// Config returns the mesh floorplan.
func (m *Mesh) Config() Config { return m.cfg }

// RegisterMetrics publishes the mesh's traffic counters under "noc.".
func (m *Mesh) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("noc.messages", func() uint64 { return m.Messages })
	r.CounterFunc("noc.spine.flits", func() uint64 { return m.SpineFlitSegs })
	r.CounterFunc("noc.vert.flits", func() uint64 { return m.VertFlitSegs })
	r.CounterFunc("noc.link_busy_cycles", func() uint64 { return uint64(m.TotalLinkBusyCycles()) })
}

// side reports which spine side column c hangs off.
func (m *Mesh) side(c int) int {
	if c < m.cfg.Cols/2 {
		return 0
	}
	return 1
}

// flits reports the segment occupancy of a message: one header flit plus
// the payload at link width.
func (m *Mesh) flits(payloadBytes int) sim.Time {
	f := 1 + (payloadBytes+m.cfg.FlitBytes-1)/m.cfg.FlitBytes
	return sim.Time(f)
}

// UncontendedOneWay reports the request-path latency to bank (col,row) on
// an idle network: ingress + spine + vertical climb.
func (m *Mesh) UncontendedOneWay(col, row int) sim.Time {
	t := m.cfg.IngressLat + sim.Time(m.cfg.ColDist[col])*m.cfg.SpineSegLat
	for r := 1; r <= row; r++ {
		t += m.cfg.VertReqLat[r-1]
	}
	return t
}

// UncontendedRoundTrip reports request + response latency on an idle
// network.
func (m *Mesh) UncontendedRoundTrip(col, row int) sim.Time {
	t := m.UncontendedOneWay(col, row)
	t += sim.Time(m.cfg.ColDist[col]) * m.cfg.SpineSegLat
	for r := 1; r <= row; r++ {
		t += m.cfg.VertRespLat[r-1]
	}
	return t
}

// Route sends a message of payloadBytes to (dir==ToBank) or from
// (dir==ToController) bank (col,row), arriving/leaving at cycle `at`.
// It returns the head arrival time at the destination, with every segment
// along the path reserved for the message's flit count.
func (m *Mesh) Route(at sim.Time, col, row int, payloadBytes int, dir Dir) sim.Time {
	if col < 0 || col >= m.cfg.Cols || row < 0 || row >= m.cfg.Rows {
		panic(fmt.Sprintf("noc: bank (%d,%d) outside %dx%d grid", col, row, m.cfg.Cols, m.cfg.Rows))
	}
	fl := m.flits(payloadBytes)
	m.Messages++
	side := m.side(col)
	t := at
	if dir == ToBank {
		t += m.cfg.IngressLat
		for s := 0; s < m.cfg.ColDist[col]; s++ {
			start := m.spine[dir][side][s].Reserve(t, fl)
			t = start + m.cfg.SpineSegLat
			m.SpineFlitSegs += uint64(fl)
		}
		for r := 1; r <= row; r++ {
			start := m.vert[dir][col][r-1].Reserve(t, fl)
			t = start + m.cfg.VertReqLat[r-1]
			m.VertFlitSegs += uint64(fl)
		}
		return t
	}
	// Response direction: descend the column, then cross the spine inward.
	for r := row; r >= 1; r-- {
		start := m.vert[dir][col][r-1].Reserve(t, fl)
		t = start + m.cfg.VertRespLat[r-1]
		m.VertFlitSegs += uint64(fl)
	}
	for s := m.cfg.ColDist[col] - 1; s >= 0; s-- {
		start := m.spine[dir][side][s].Reserve(t, fl)
		t = start + m.cfg.SpineSegLat
		m.SpineFlitSegs += uint64(fl)
	}
	return t
}

// RouteBetween moves a message between two banks in the same column (the
// DNUCA migration swap path), reserving the vertical segments between them.
// It returns head arrival. Migration uses the request-direction links when
// moving away from the controller and response-direction links when moving
// closer.
func (m *Mesh) RouteBetween(at sim.Time, col, fromRow, toRow, payloadBytes int) sim.Time {
	if fromRow == toRow {
		return at
	}
	fl := m.flits(payloadBytes)
	m.Messages++
	t := at
	if toRow > fromRow {
		for r := fromRow + 1; r <= toRow; r++ {
			start := m.vert[ToBank][col][r-1].Reserve(t, fl)
			t = start + m.cfg.VertReqLat[r-1]
			m.VertFlitSegs += uint64(fl)
		}
		return t
	}
	for r := fromRow; r > toRow; r-- {
		start := m.vert[ToController][col][r-1].Reserve(t, fl)
		t = start + m.cfg.VertRespLat[r-1]
		m.VertFlitSegs += uint64(fl)
	}
	return t
}

// TotalLinkBusyCycles sums occupancy over every segment, for utilization
// reporting.
func (m *Mesh) TotalLinkBusyCycles() sim.Time {
	var total sim.Time
	for dir := 0; dir < 2; dir++ {
		for side := 0; side < 2; side++ {
			for i := range m.spine[dir][side] {
				total += m.spine[dir][side][i].BusyCycles()
			}
		}
		for c := range m.vert[dir] {
			for r := range m.vert[dir][c] {
				total += m.vert[dir][c][r].BusyCycles()
			}
		}
	}
	return total
}

// SegmentCount reports the number of link segments in the mesh (both
// directions), for utilization denominators and the transistor roll-up.
func (m *Mesh) SegmentCount() int {
	n := 0
	for dir := 0; dir < 2; dir++ {
		for side := 0; side < 2; side++ {
			n += len(m.spine[dir][side])
		}
		for c := range m.vert[dir] {
			n += len(m.vert[dir][c])
		}
	}
	return n
}
