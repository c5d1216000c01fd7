package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGlobal45Parameters(t *testing.T) {
	p := Global45()
	// Dense 45 nm global wiring: hundreds of ohms and ~0.2 pF per mm.
	if p.RPerMM < 200 || p.RPerMM > 800 {
		t.Fatalf("R/mm %.0f ohms out of plausible range", p.RPerMM)
	}
	if p.CPerMM < 0.1e-12 || p.CPerMM > 0.5e-12 {
		t.Fatalf("C/mm %.3g F out of plausible range", p.CPerMM)
	}
}

func TestUnrepeatedDelayQuadratic(t *testing.T) {
	p := Global45()
	d1 := UnrepeatedDelayPs(p, 1)
	d2 := UnrepeatedDelayPs(p, 2)
	if math.Abs(d2/d1-4) > 1e-9 {
		t.Fatalf("unrepeated delay not quadratic: %v vs %v", d1, d2)
	}
}

func TestRepeatedDelayLinear(t *testing.T) {
	p := Global45()
	d1 := Repeat(p, 5).DelayPs
	d2 := Repeat(p, 10).DelayPs
	if math.Abs(d2/d1-2) > 1e-9 {
		t.Fatalf("repeated delay not linear: %v vs %v", d1, d2)
	}
}

func TestRepeatersBeatBareWireForGlobalLengths(t *testing.T) {
	p := Global45()
	for _, l := range []float64{5, 10, 20} {
		if Repeat(p, l).DelayPs >= UnrepeatedDelayPs(p, l) {
			t.Fatalf("repeaters did not help at %v mm", l)
		}
	}
}

func TestCrossChipTakes25PlusCycles(t *testing.T) {
	// The intro's headline: crossing a 2 cm die takes over 25 cycles at
	// the end of the decade for aggressively clocked processors.
	cycles := Repeat(Global45(), 20).DelayCycles()
	if cycles < 25 || cycles > 40 {
		t.Fatalf("2cm repeated wire = %.1f cycles, want 25-40", cycles)
	}
}

func TestSegmentCountGrowsWithLength(t *testing.T) {
	p := Global45()
	if Repeat(p, 20).Segments <= Repeat(p, 5).Segments {
		t.Fatal("longer wires need more repeaters")
	}
	if Repeat(p, 0.1).Segments < 1 {
		t.Fatal("every wire has at least one segment")
	}
}

func TestRepeatPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Repeat with zero length did not panic")
		}
	}()
	Repeat(Global45(), 0)
}

func TestEnergyPerTransition(t *testing.T) {
	p := Global45()
	// E = C*V^2; 1 mm at ~0.2 pF/mm and 1 V is ~0.2 pJ.
	e := EnergyPerTransitionJ(p, 1)
	if e < 0.05e-12 || e > 0.5e-12 {
		t.Fatalf("per-mm switching energy %.3g J out of range", e)
	}
	if e2 := EnergyPerTransitionJ(p, 2); math.Abs(e2-2*e) > 1e-20 {
		t.Fatal("switching energy should be linear in length")
	}
}

func TestChannelArea(t *testing.T) {
	p := Global45()
	// 128 tracks over 10 mm at 0.4 um pitch: 0.512 mm^2.
	got := p.ChannelAreaMM2(128, 10)
	want := 128 * 0.0004 * 10.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("channel area %v, want %v", got, want)
	}
}

// Property: repeated delay is monotone in length and always linear within
// floating-point tolerance.
func TestQuickRepeatedDelayMonotone(t *testing.T) {
	f := func(rawA, rawB uint8) bool {
		a := 0.5 + float64(rawA%100)/10
		b := a + 0.1 + float64(rawB%100)/10
		p := Global45()
		return Repeat(p, b).DelayPs > Repeat(p, a).DelayPs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: derived R and C scale correctly with geometry — wider wires
// have lower resistance; tighter spacing has higher capacitance.
func TestQuickGeometryScaling(t *testing.T) {
	f := func(raw uint8) bool {
		w := 0.1 + float64(raw%20)/20
		narrow := NewParams(w, 0.2, 0.35)
		wide := NewParams(w*2, 0.2, 0.35)
		tight := NewParams(w, 0.1, 0.35)
		loose := NewParams(w, 0.4, 0.35)
		return wide.RPerMM < narrow.RPerMM && tight.CPerMM > loose.CPerMM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
