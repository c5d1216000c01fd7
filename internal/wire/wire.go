// Package wire models conventional on-chip RC interconnect at the paper's
// 45 nm / 10 GHz design point: distributed-RC delay, optimal repeater
// insertion, repeater area and transistor demand, and dynamic switching
// power (alpha * C * V^2 * f). It supplies the conventional-wire side of
// every TLC-vs-DNUCA comparison: DNUCA mesh link latency, Table 7 channel
// area, Table 8 repeater transistor counts, and Table 9 dynamic power.
package wire

import (
	"fmt"
	"math"
)

// Technology constants for the 45 nm generation, following the paper's
// sources: ITRS 2002 [14] for wire geometry, Agarwal et al. [1] and
// BACPAC [34] for device parasitics. Lengths in mm, capacitance in F,
// resistance in ohms, time in seconds unless noted.
const (
	// Vdd is the 45 nm supply voltage.
	Vdd = 1.0 // volts
	// ClockHz is the aggressive 10 GHz core frequency [18].
	ClockHz = 10e9
	// CyclePs is the clock period in picoseconds.
	CyclePs = 100.0
)

// Params describes one conventional wiring layer.
type Params struct {
	// WidthUM and SpacingUM are the drawn wire width and spacing.
	WidthUM, SpacingUM float64
	// ThicknessUM is the metal thickness.
	ThicknessUM float64
	// RPerMM is wire resistance per mm (ohms), including barrier/liner
	// derating of the copper cross-section.
	RPerMM float64
	// CPerMM is total wire capacitance per mm (farads), including
	// coupling to same-layer neighbours at minimum spacing.
	CPerMM float64
}

// Resistivity of barrier-derated copper, ohm-meters.
const rhoCu = 3.0e-8

// NewParams derives per-mm R and C from wire geometry. Capacitance uses a
// parallel-plate ground component plus sidewall coupling, the standard
// first-order global-wire model.
func NewParams(widthUM, spacingUM, thicknessUM float64) Params {
	area := widthUM * 1e-6 * thicknessUM * 1e-6 // m^2
	rPerMM := rhoCu / area * 1e-3               // ohms per mm
	// Plate component to layers above/below plus sidewall coupling to both
	// neighbours plus a fixed fringing term — the standard first-order
	// global-wire capacitance model, in F/m then scaled to F/mm.
	eps := 8.854e-12 * 3.3 // SiO2-class interlayer dielectric
	ild := 0.35e-6         // interlayer dielectric height, m
	plate := 2 * eps * (widthUM * 1e-6) / ild
	side := 2 * eps * (thicknessUM * 1e-6) / (spacingUM * 1e-6)
	const fringe = 0.04e-9 // F/m
	cPerMM := (plate + side + fringe) * 1e-3
	return Params{
		WidthUM: widthUM, SpacingUM: spacingUM, ThicknessUM: thicknessUM,
		RPerMM: rPerMM, CPerMM: cPerMM,
	}
}

// Global45 returns the dense global-wiring layer the DNUCA channels use
// (Figure 3's conventional cross-section: sub-quarter-micron wires).
func Global45() Params { return NewParams(0.20, 0.20, 0.35) }

// Device parasitics for repeater sizing (45 nm, BACPAC-style).
const (
	// invR0 is the output resistance of a minimum inverter, ohms.
	invR0 = 9000.0
	// invC0 is the input capacitance of a minimum inverter, farads.
	invC0 = 0.33e-15
	// repeaterDerate folds in the non-idealities the paper's sources
	// charge real repeated wiring with — via resistance up to the
	// repeater, repeater placement constrained by floorplan, and the
	// setup/clk-to-q overhead of the pipeline latches inserted every
	// cycle. Calibrated so a 2 cm repeated global wire costs ~25+ cycles
	// at 10 GHz, the intro's headline number [14,18].
	repeaterDerate = 4.0
)

// RepeatedWire describes an optimally repeated wire of a given length.
type RepeatedWire struct {
	Params   Params
	LengthMM float64
	// Segments is the number of repeater-bounded segments.
	Segments int
	// RepeaterSize is the repeater size in multiples of a minimum inverter.
	RepeaterSize float64
	// DelayPs is the end-to-end delay including derating.
	DelayPs float64
}

// Repeat computes optimal Bakoglu repeater insertion for a wire of the
// given length.
func Repeat(p Params, lengthMM float64) RepeatedWire {
	if lengthMM <= 0 {
		panic(fmt.Sprintf("wire: non-positive length %v", lengthMM))
	}
	r := p.RPerMM
	c := p.CPerMM
	// Optimal segment length and repeater size (Bakoglu).
	lOpt := math.Sqrt(2 * invR0 * invC0 / (r * c)) // mm
	hOpt := math.Sqrt(invR0 * c / (r * invC0))
	segs := int(math.Max(1, math.Ceil(lengthMM/lOpt)))
	// Per-mm delay of an optimally repeated line: ~2.13*sqrt(R0 C0 r c).
	perMM := 2.13 * math.Sqrt(invR0*invC0*r*c) * 1e12 // ps per mm
	return RepeatedWire{
		Params:       p,
		LengthMM:     lengthMM,
		Segments:     segs,
		RepeaterSize: hOpt,
		DelayPs:      perMM * lengthMM * repeaterDerate,
	}
}

// DelayCycles reports the repeated-wire delay in (fractional) 10 GHz cycles.
func (w RepeatedWire) DelayCycles() float64 { return w.DelayPs / CyclePs }

// UnrepeatedDelayPs reports the distributed-RC delay of a bare wire:
// 0.38 * R * C * L^2, the quadratic growth that motivates repeaters
// (Section 2).
func UnrepeatedDelayPs(p Params, lengthMM float64) float64 {
	return 0.38 * (p.RPerMM * lengthMM) * (p.CPerMM * lengthMM) * 1e12
}

// EnergyPerTransitionJ reports the energy to switch the full wire once:
// C_total * Vdd^2. Callers apply the activity factor alpha and repeater
// input loading.
func EnergyPerTransitionJ(p Params, lengthMM float64) float64 {
	return p.CPerMM * lengthMM * Vdd * Vdd
}

// TrackPitchMM reports the layout pitch of one wire track (width+spacing).
func (p Params) TrackPitchMM() float64 { return (p.WidthUM + p.SpacingUM) * 1e-3 }

// ChannelAreaMM2 reports the substrate area of a routing channel carrying
// `tracks` parallel wires over lengthMM. Conventional mesh channels consume
// substrate because the repeaters and via farms below them preclude cell
// placement (Section 2's third repeater problem).
func (p Params) ChannelAreaMM2(tracks int, lengthMM float64) float64 {
	return float64(tracks) * p.TrackPitchMM() * lengthMM
}
