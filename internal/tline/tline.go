// Package tline models the on-chip transmission lines TLC is built from
// (Section 3). It substitutes for the paper's Linpar field solver and
// HSPICE W-element simulations with closed-form stripline physics:
//
//   - RLC extraction: per-unit-length capacitance from parallel-plate,
//     sidewall, and fringing terms; inductance from the TEM relation
//     L*C = mu*eps; characteristic impedance Z0 = sqrt(L/C).
//   - Loss: DC resistance plus the skin effect (current crowding reduces
//     the effective cross-section at high frequency), giving the
//     frequency-dependent attenuation the paper models with HSPICE.
//   - Signal integrity acceptance: received amplitude >= 75% of Vdd and
//     received pulse width >= 40% of the 10 GHz cycle, the paper's two
//     criteria (Section 5, Physical Evaluation).
//   - Driver/receiver cost: transistor count, gate width, and the
//     voltage-mode dynamic energy alpha * t_b * V^2 / (R_D + Z0) * f
//     (Section 6.1, Power).
//
// Lines are laid out stripline-fashion between reference planes with
// alternating power/ground shields, so each signal sees a homogeneous
// low-k dielectric and a low-resistance return path.
package tline

import (
	"fmt"
	"math"
)

// Physical constants.
const (
	eps0 = 8.854e-12      // F/m
	mu0  = 4e-7 * math.Pi // H/m
	c0   = 2.9979e8       // m/s

	// EpsR is the relative permittivity of the low-k dielectric
	// surrounding the transmission lines [7].
	EpsR = 2.2

	// rho is the resistivity of the thick upper-layer copper the
	// transmission lines are drawn in; at 3 um thickness the barrier
	// liner is a negligible fraction of the cross-section.
	rho = 1.8e-8

	// Vdd is the 45 nm supply voltage.
	Vdd = 1.0
	// CyclePs is the 10 GHz clock period.
	CyclePs = 100.0
	// ClockHz is the 10 GHz operating frequency.
	ClockHz = 10e9

	// MinAmplitudeFrac is the acceptance floor for received amplitude,
	// as a fraction of Vdd (the paper requires >= 75%).
	MinAmplitudeFrac = 0.75
	// MinPulseWidthFrac is the acceptance floor for received pulse
	// width, as a fraction of the cycle (the paper requires >= 40%).
	MinPulseWidthFrac = 0.40

	// launchEfficiency folds in driver tuning error and reflection noise
	// at discontinuities: the received amplitude is derated by this
	// factor on top of conductor attenuation.
	launchEfficiency = 0.96
)

// Geometry describes one stripline transmission line (Figure 3 / Table 1).
// All dimensions in microns except length.
type Geometry struct {
	// WidthUM is the signal conductor width (W).
	WidthUM float64
	// SpacingUM is the gap to the adjacent power/ground shield line (S).
	SpacingUM float64
	// HeightUM is the dielectric height to each reference plane (H).
	HeightUM float64
	// ThicknessUM is the conductor thickness (T).
	ThicknessUM float64
	// LengthCM is the routed length in centimeters.
	LengthCM float64
}

// Table1 returns the three transmission-line geometries of Table 1: longer
// links use wider, more widely spaced conductors to hold attenuation down.
func Table1() []Geometry {
	return []Geometry{
		{WidthUM: 2.0, SpacingUM: 2.0, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 0.9},
		{WidthUM: 2.5, SpacingUM: 2.5, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 1.1},
		{WidthUM: 3.0, SpacingUM: 3.0, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 1.3},
	}
}

// RLC holds the extracted per-unit-length electrical parameters, the output
// the paper obtains from Linpar.
type RLC struct {
	// CPerM is capacitance per meter.
	CPerM float64
	// LPerM is inductance per meter.
	LPerM float64
	// RdcPerM is DC resistance per meter.
	RdcPerM float64
	// RhfPerM is the skin-effect resistance per meter at the given
	// frequency.
	RhfPerM func(freqHz float64) float64
	// Z0 is the characteristic impedance, ohms.
	Z0 float64
	// Velocity is the propagation speed, m/s.
	Velocity float64
}

// Extract computes per-unit-length RLC for a stripline geometry.
func Extract(g Geometry) RLC {
	validate(g)
	w := g.WidthUM * 1e-6
	h := g.HeightUM * 1e-6
	t := g.ThicknessUM * 1e-6
	// Cohn's stripline impedance for a strip centered between reference
	// planes separated by b = 2H + T, with a first-order thickness
	// correction fattening the effective strip width:
	//
	//	Z0 = (30*pi/sqrt(epsR)) * b / (w_eff + 0.441 b)
	b := 2*h + t
	wEff := w + 0.35*t
	z0 := 30 * math.Pi / math.Sqrt(EpsR) * b / (wEff + 0.441*b)
	// TEM mode in a homogeneous dielectric: velocity depends only on EpsR;
	// C and L follow from Z0 = sqrt(L/C) and v = 1/sqrt(LC).
	v := c0 / math.Sqrt(EpsR)
	cPerM := 1 / (v * z0)
	lPerM := z0 / v
	rdc := rho / (w * t)
	rhf := func(f float64) float64 {
		if f <= 0 {
			return rdc
		}
		delta := math.Sqrt(rho / (math.Pi * f * mu0))
		// Current crowds into a skin-depth-thick shell around the
		// perimeter; clamp to the DC cross-section.
		aEff := 2 * delta * (w + t)
		if full := w * t; aEff > full {
			aEff = full
		}
		r := rho / aEff
		if r < rdc {
			r = rdc
		}
		return r
	}
	return RLC{
		CPerM:    cPerM,
		LPerM:    lPerM,
		RdcPerM:  rdc,
		RhfPerM:  rhf,
		Z0:       z0,
		Velocity: v,
	}
}

// Signal is the outcome of "simulating" a 10 GHz pulse down the line — the
// quantities the paper reads off its HSPICE waveforms.
type Signal struct {
	Geometry Geometry
	RLC      RLC
	// FlightPs is the wave flight time over the full length.
	FlightPs float64
	// DelayCycles is the link latency in whole clock cycles, including
	// driver and receiver overhead, as the cache model must budget it.
	DelayCycles int
	// AmplitudeFrac is the received amplitude as a fraction of Vdd.
	AmplitudeFrac float64
	// PulseWidthPs is the received pulse width of a one-cycle pulse after
	// dispersion.
	PulseWidthPs float64
	// OK reports whether both acceptance criteria pass.
	OK bool
}

// driverReceiverPs is the fixed driver insertion + receiver resolution
// overhead per traversal.
const driverReceiverPs = 25.0

// Analyze propagates a single-cycle 10 GHz pulse down the line and applies
// the paper's two acceptance criteria.
func Analyze(g Geometry) Signal {
	p := Extract(g)
	lenM := g.LengthCM * 1e-2
	flight := lenM / p.Velocity * 1e12 // ps

	// Amplitude: source-terminated launch at Vdd/2 doubles at the
	// high-impedance receiver; conductor loss attenuates by exp(-alpha*l)
	// with alpha = R/(2*Z0) for a low-loss line. The DC/fundamental
	// resistance governs the settled amplitude.
	alphaDC := p.RdcPerM / (2 * p.Z0)
	amp := math.Exp(-alphaDC*lenM) * launchEfficiency

	// Pulse width: the high-frequency components (taken at the third
	// harmonic) see higher skin-effect resistance, rounding the edges.
	// Model the edge degradation as the RC time constant formed by the
	// high-frequency line resistance and the line capacitance.
	rHF := p.RhfPerM(3*ClockHz) * lenM
	cTot := p.CPerM * lenM
	launchEdgePs := 15.0
	edgePs := math.Sqrt(launchEdgePs*launchEdgePs + (0.5*rHF*cTot*1e12)*(0.5*rHF*cTot*1e12))
	pw := CyclePs - (edgePs - launchEdgePs)

	total := flight + driverReceiverPs
	cycles := int(math.Ceil(total / CyclePs))
	ok := amp >= MinAmplitudeFrac && pw >= MinPulseWidthFrac*CyclePs
	return Signal{
		Geometry: g, RLC: p,
		FlightPs:      flight,
		DelayCycles:   cycles,
		AmplitudeFrac: amp,
		PulseWidthPs:  pw,
		OK:            ok,
	}
}

// EnergyPerBitJ is the dynamic energy to signal one bit down a matched
// (R_D = Z0) voltage-mode line: the driver sees R_D in series with Z0 for
// the pulse duration t_b (Section 6.1):
//
//	E = t_b * V^2 / (R_D + Z0)
func EnergyPerBitJ(z0 float64) float64 {
	tb := CyclePs * 1e-12
	return tb * Vdd * Vdd / (2 * z0)
}

// CheaperThanRC reports the paper's crossover condition: a matched
// voltage-mode transmission line consumes less dynamic power than a
// conventional wire of total capacitance cWire when t_b/(2*Z0) < C.
func CheaperThanRC(z0, cWireF float64) bool {
	tb := CyclePs * 1e-12
	return tb/(2*z0) < cWireF
}

// InterfaceCost is the circuit cost of one transmission line's endpoints:
// the source-terminated tunable driver, the high-input-impedance receiver,
// and the synchronization latches at each end.
type InterfaceCost struct {
	Transistors     int
	GateWidthLambda float64
}

// Per-line circuit budgets. The driver is sized to match Z0 (a ~70 ohm
// output impedance needs a wide device), split into binary-weighted
// segments for digital tuning [10], and driven through a tapered predriver
// chain. Constants follow the transistor-count arithmetic behind Table 8
// (~93 transistors and ~10 kilo-lambda of gate width per line).
const (
	driverSegments       = 8
	transistorsPerSeg    = 6 // segment inverter + tuning pass gate + control
	receiverTransistors  = 15
	latchTransistors     = 30
	invR0Ohms            = 9000.0
	invMinWidthLambda    = 12.0
	tuningWidthOverhead  = 2.0
	predriverTaperFactor = 2.33
	receiverWidthLambda  = 1200.0
	latchWidthLambda     = 300.0
)

// Interface reports the endpoint circuit cost for a line of impedance z0.
func Interface(z0 float64) InterfaceCost {
	if z0 <= 0 {
		panic(fmt.Sprintf("tline: non-positive Z0 %v", z0))
	}
	driverWidth := invR0Ohms / z0 * invMinWidthLambda * tuningWidthOverhead * predriverTaperFactor
	return InterfaceCost{
		Transistors:     driverSegments*transistorsPerSeg + receiverTransistors + latchTransistors,
		GateWidthLambda: driverWidth + receiverWidthLambda + latchWidthLambda,
	}
}

// TrackPitchMM is the layout pitch one line plus its shield consumes on the
// transmission-line layer: signal width + spacing + shield width + spacing
// (alternating power/ground shielding, Section 3). Shields are the same
// width as the signal.
func (g Geometry) TrackPitchMM() float64 {
	return 2 * (g.WidthUM + g.SpacingUM) * 1e-3
}

func validate(g Geometry) {
	if g.WidthUM <= 0 || g.SpacingUM <= 0 || g.HeightUM <= 0 || g.ThicknessUM <= 0 || g.LengthCM <= 0 {
		panic(fmt.Sprintf("tline: invalid geometry %+v", g))
	}
}
