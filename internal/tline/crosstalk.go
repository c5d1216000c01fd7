package tline

import "math"

// Crosstalk analysis for the shielding argument of Section 3: the paper
// lays out a power or ground shield between every pair of signal lines (on
// top of the reference planes above and below) to isolate capacitive and
// inductive coupling and provide low-resistance return paths.
//
// The model compares the worst-case coupled noise on a victim line when
// both neighbours switch, with and without the shields:
//
//   - Unshielded: neighbours sit at distance S on both sides; the
//     sidewall coupling capacitance 2*eps*T/S couples directly into the
//     victim. The capacitive divider K = Cc / (Cc + Cself) bounds the
//     coupled voltage for a fast aggressor edge.
//   - Shielded: a grounded line of the same width sits between victim and
//     aggressor. Direct coupling survives only as a fringing component
//     over the shield; the model charges a residual fraction of the
//     sidewall capacitance set by the shield geometry.
//
// The acceptance criterion pairs with the amplitude check: the received
// signal (attenuated) must still clear the receiver threshold with the
// coupled noise subtracted.

// NoiseMarginFrac is the receiver's noise budget as a fraction of Vdd:
// coupled noise beyond this corrupts sampling even when the amplitude
// criterion passes.
const NoiseMarginFrac = 0.15

// shieldResidual is the fraction of direct sidewall coupling that leaks
// past a same-width grounded shield (fringing over the shield top).
const shieldResidual = 0.06

// CrosstalkFrac reports the worst-case coupled noise on a victim line as
// a fraction of Vdd, with both neighbours switching in the same direction.
func CrosstalkFrac(g Geometry, shielded bool) float64 {
	validate(g)
	w := g.WidthUM * 1e-6
	s := g.SpacingUM * 1e-6
	h := g.HeightUM * 1e-6
	t := g.ThicknessUM * 1e-6
	eps := eps0 * EpsR

	// Self capacitance to the reference planes (plate + fringing).
	cSelf := 2*eps*w/h + 4*eps
	// Direct sidewall coupling to one neighbour.
	cSide := eps * t / s
	if shielded {
		// With a shield between victim and aggressor the signals sit two
		// pitches apart and only the residual fringing couples.
		cSide *= shieldResidual
	}
	// Two aggressors, worst case in phase.
	cc := 2 * cSide
	return cc / (cc + cSelf)
}

// SignalWithNoise extends the acceptance analysis with the crosstalk
// budget: the received amplitude must exceed the threshold plus the
// coupled noise.
type SignalWithNoise struct {
	Signal
	// CrosstalkFracShielded / Unshielded are the coupled-noise fractions
	// for the two layouts.
	CrosstalkShielded, CrosstalkUnshielded float64
	// OKShielded / OKUnshielded apply the full criterion (amplitude,
	// pulse width, and noise margin) for each layout.
	OKShielded, OKUnshielded bool
}

// AnalyzeNoise runs the full signal-integrity analysis including
// crosstalk, for both shielded and unshielded layouts of the geometry.
func AnalyzeNoise(g Geometry) SignalWithNoise {
	base := Analyze(g)
	sh := CrosstalkFrac(g, true)
	un := CrosstalkFrac(g, false)
	ok := func(xtalk float64) bool {
		return base.OK && xtalk <= NoiseMarginFrac &&
			base.AmplitudeFrac-xtalk >= MinAmplitudeFrac-NoiseMarginFrac
	}
	return SignalWithNoise{
		Signal:              base,
		CrosstalkShielded:   sh,
		CrosstalkUnshielded: un,
		OKShielded:          ok(sh),
		OKUnshielded:        ok(un),
	}
}

// MaxUnshieldedLengthCM searches for the longest run of this cross-section
// that would still pass the noise criterion without shields — the
// quantitative version of the paper's claim that shields are what make
// centimeter-scale lines viable.
func MaxUnshieldedLengthCM(g Geometry) float64 {
	lo, hi := 0.05, 3.0
	probe := g
	probe.LengthCM = lo
	if !AnalyzeNoise(probe).OKUnshielded {
		return 0 // fails even at the shortest run: shields are mandatory
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		gg := g
		gg.LengthCM = mid
		if AnalyzeNoise(gg).OKUnshielded {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Round(lo*100) / 100
}
