package tline

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1GeometriesPass(t *testing.T) {
	for _, g := range Table1() {
		s := Analyze(g)
		if !s.OK {
			t.Errorf("Table 1 geometry %+v fails acceptance: amp=%.3f pw=%.1fps",
				g, s.AmplitudeFrac, s.PulseWidthPs)
		}
	}
}

func TestNarrowLongLineFailsAmplitude(t *testing.T) {
	// A 1 micron wide line at 1.3 cm attenuates too much — the reason
	// Table 1 widens lines with length.
	g := Geometry{WidthUM: 1.0, SpacingUM: 1.0, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 1.3}
	s := Analyze(g)
	if s.AmplitudeFrac >= MinAmplitudeFrac {
		t.Fatalf("narrow 1.3cm line passed amplitude with %.3f", s.AmplitudeFrac)
	}
	if s.OK {
		t.Fatal("narrow 1.3cm line should fail acceptance")
	}
}

func TestWiderLinesAttenuateLess(t *testing.T) {
	base := Geometry{WidthUM: 1.5, SpacingUM: 2.0, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 1.3}
	wide := base
	wide.WidthUM = 3.0
	if Analyze(wide).AmplitudeFrac <= Analyze(base).AmplitudeFrac {
		t.Fatal("widening the conductor should reduce attenuation")
	}
}

func TestFlightTimeIsSpeedOfLightLimited(t *testing.T) {
	g := Table1()[2] // 1.3 cm
	s := Analyze(g)
	wantPs := 0.013 / (c0 / math.Sqrt(EpsR)) * 1e12
	if math.Abs(s.FlightPs-wantPs) > 1e-6 {
		t.Fatalf("flight %.2fps, want %.2fps", s.FlightPs, wantPs)
	}
	// 1.3 cm at ~0.2 m/ns is ~64 ps: one 10 GHz cycle covers the longest
	// TLC link including driver/receiver overhead.
	if s.DelayCycles != 1 {
		t.Fatalf("1.3cm link delay %d cycles, want 1", s.DelayCycles)
	}
}

func TestVelocityIndependentOfGeometry(t *testing.T) {
	// TEM propagation: speed depends only on the dielectric.
	a := Extract(Table1()[0])
	b := Extract(Table1()[2])
	if math.Abs(a.Velocity-b.Velocity) > 1 {
		t.Fatalf("velocities differ: %v vs %v", a.Velocity, b.Velocity)
	}
	want := c0 / math.Sqrt(EpsR)
	if math.Abs(a.Velocity-want) > 1 {
		t.Fatalf("velocity %v, want %v", a.Velocity, want)
	}
}

func TestZ0InPlausibleRange(t *testing.T) {
	for _, g := range Table1() {
		z0 := Extract(g).Z0
		if z0 < 40 || z0 > 120 {
			t.Errorf("geometry %+v has implausible Z0 %.1f ohms", g, z0)
		}
	}
}

func TestSkinEffectRaisesResistanceWithFrequency(t *testing.T) {
	p := Extract(Table1()[2])
	rdc := p.RhfPerM(0)
	r10 := p.RhfPerM(10e9)
	r30 := p.RhfPerM(30e9)
	if rdc != p.RdcPerM {
		t.Fatal("zero-frequency resistance should equal DC")
	}
	if r30 < r10 || r10 < rdc {
		t.Fatalf("resistance not monotone with frequency: %v %v %v", rdc, r10, r30)
	}
	if r30 <= rdc {
		t.Fatal("skin effect should raise resistance at the third harmonic")
	}
}

func TestEnergyPerBit(t *testing.T) {
	// Matched 50-ohm line, 100 ps pulse: E = 100ps * 1V^2 / 100ohm = 1 pJ.
	got := EnergyPerBitJ(50)
	if math.Abs(got-1e-12) > 1e-18 {
		t.Fatalf("energy per bit %.3e J, want 1e-12", got)
	}
}

func TestCheaperThanRCCrossover(t *testing.T) {
	// t_b/(2 Z0) = 100ps/140ohm = 0.71 pF. Wires longer than ~3-4 mm of
	// conventional capacitance clear the bar; short wires do not.
	z0 := 70.0
	if CheaperThanRC(z0, 0.3e-12) {
		t.Fatal("a short (0.3 pF) wire should favour conventional signalling")
	}
	if !CheaperThanRC(z0, 3e-12) {
		t.Fatal("a long (3 pF) global wire should favour the transmission line")
	}
}

func TestInterfaceCost(t *testing.T) {
	c := Interface(70)
	// Table 8 arithmetic: ~1.9e5 transistors over 2048 lines = ~93/line,
	// ~20 Mlambda over 2048 lines = ~10 klambda/line.
	if c.Transistors < 80 || c.Transistors > 110 {
		t.Fatalf("per-line transistors %d, want ~93", c.Transistors)
	}
	if c.GateWidthLambda < 2000 || c.GateWidthLambda > 15000 {
		t.Fatalf("per-line gate width %.0f lambda, want thousands", c.GateWidthLambda)
	}
	// Lower impedance needs a wider driver.
	if Interface(40).GateWidthLambda <= Interface(90).GateWidthLambda {
		t.Fatal("driver width should grow as Z0 falls")
	}
}

func TestInterfacePanicsOnBadZ0(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Interface(0) did not panic")
		}
	}()
	Interface(0)
}

func TestTrackPitch(t *testing.T) {
	g := Table1()[0] // W=S=2um -> pitch includes shield: 2*(2+2)=8um
	if got := g.TrackPitchMM(); math.Abs(got-0.008) > 1e-12 {
		t.Fatalf("track pitch %v mm, want 0.008", got)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-width geometry did not panic")
		}
	}()
	Extract(Geometry{WidthUM: 0, SpacingUM: 1, HeightUM: 1, ThicknessUM: 1, LengthCM: 1})
}

// Property: amplitude decays monotonically with length and never exceeds
// the launch efficiency; longer lines never arrive stronger.
func TestQuickAmplitudeMonotoneInLength(t *testing.T) {
	f := func(rawW, rawL1, rawL2 uint8) bool {
		w := 1.0 + float64(rawW%30)/10 // 1.0 .. 3.9 um
		l1 := 0.2 + float64(rawL1%20)/10
		l2 := l1 + 0.1 + float64(rawL2%10)/10
		g1 := Geometry{WidthUM: w, SpacingUM: w, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: l1}
		g2 := g1
		g2.LengthCM = l2
		a1 := Analyze(g1).AmplitudeFrac
		a2 := Analyze(g2).AmplitudeFrac
		return a2 < a1 && a1 <= launchEfficiency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Z0 = sqrt(L/C) and v = 1/sqrt(LC) are self-consistent.
func TestQuickRLCSelfConsistent(t *testing.T) {
	f := func(rawW, rawS uint8) bool {
		w := 1.0 + float64(rawW%40)/10
		s := 1.0 + float64(rawS%40)/10
		p := Extract(Geometry{WidthUM: w, SpacingUM: s, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 1})
		z := math.Sqrt(p.LPerM / p.CPerM)
		v := 1 / math.Sqrt(p.LPerM*p.CPerM)
		return math.Abs(z-p.Z0) < 1e-9 && math.Abs(v-p.Velocity) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
