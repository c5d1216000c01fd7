// Package power converts the traffic counters the cache models accumulate
// into the Table 9 dynamic-power numbers, and rolls up the static
// (leakage-proxy) comparison behind Table 8's gate-width column.
//
// Conventional mesh signalling charges the full wire capacitance every
// transition (alpha * C * V^2 * f); transmission-line signalling drives a
// matched line for one bit time (alpha * t_b * V^2/(R_D+Z0) * f). The
// crossover — t_b/(2 Z0) < C — favours transmission lines for links beyond
// about a centimeter, which is exactly the TLC regime.
package power

import (
	"tlc/internal/noc"
	"tlc/internal/sim"
	"tlc/internal/tlcache"
	"tlc/internal/wire"
)

// CyclePeriodS is the 10 GHz clock period in seconds.
const CyclePeriodS = 100e-12

// MeshEnergyJ reports the dynamic energy a NUCA mesh has dissipated:
// link-wire switching plus router traversal for every flit-segment.
func MeshEnergyJ(m *noc.Mesh) float64 {
	cfg := m.Config()
	sc := noc.DefaultSwitch(cfg.FlitBytes)
	spine := float64(m.SpineFlitSegs) * (noc.LinkEnergyPerFlitJ(cfg.FlitBytes, cfg.SpineSegMM) + sc.EnergyPerFlitJ())
	vert := float64(m.VertFlitSegs) * (noc.LinkEnergyPerFlitJ(cfg.FlitBytes, cfg.VertSegMM) + sc.EnergyPerFlitJ())
	return spine + vert
}

// MeshDynamicPowerW reports mesh dynamic power averaged over a run of the
// given length.
func MeshDynamicPowerW(m *noc.Mesh, cycles sim.Time) float64 {
	if cycles == 0 {
		return 0
	}
	return MeshEnergyJ(m) / (float64(cycles) * CyclePeriodS)
}

// TLCDynamicPowerW reports transmission-line network dynamic power for a
// TLC-family cache averaged over a run.
func TLCDynamicPowerW(c *tlcache.Cache, cycles sim.Time) float64 {
	if cycles == 0 {
		return 0
	}
	return c.NetworkEnergyJ() / (float64(cycles) * CyclePeriodS)
}

// RCWireEnergyPerBitJ is the conventional-wire energy to move one bit one
// segment: exposed for the crossover analysis in cmd/tlcphys.
func RCWireEnergyPerBitJ(segMM float64) float64 {
	const activity = 0.5
	return activity * wire.EnergyPerTransitionJ(wire.Global45(), segMM)
}
