package tline

import (
	"testing"
	"testing/quick"
)

func TestShieldingCutsCrosstalk(t *testing.T) {
	for _, g := range Table1() {
		sh := CrosstalkFrac(g, true)
		un := CrosstalkFrac(g, false)
		if sh >= un {
			t.Fatalf("%+v: shielded crosstalk %.3f not below unshielded %.3f", g, sh, un)
		}
		if un/sh < 5 {
			t.Fatalf("%+v: shields only cut crosstalk %.1fx", g, un/sh)
		}
	}
}

func TestTable1GeometriesPassShielded(t *testing.T) {
	for _, g := range Table1() {
		n := AnalyzeNoise(g)
		if !n.OKShielded {
			t.Errorf("%+v fails the noise criterion even shielded (xtalk %.3f)", g, n.CrosstalkShielded)
		}
		if n.CrosstalkShielded > NoiseMarginFrac {
			t.Errorf("%+v: shielded crosstalk %.3f above the %.2f margin", g, n.CrosstalkShielded, NoiseMarginFrac)
		}
	}
}

func TestUnshieldedNoiseWorse(t *testing.T) {
	// The Section 3 argument: without per-line shields the coupled noise
	// eats deep into the receiver's budget.
	g := Table1()[2]
	n := AnalyzeNoise(g)
	if n.CrosstalkUnshielded < NoiseMarginFrac {
		t.Fatalf("unshielded crosstalk %.3f unexpectedly inside the margin — the shields would be unnecessary", n.CrosstalkUnshielded)
	}
	if n.OKUnshielded {
		t.Fatal("the 1.3 cm line should fail unshielded")
	}
}

func TestTighterSpacingCouplesMore(t *testing.T) {
	g := Table1()[0]
	tight := g
	tight.SpacingUM = g.SpacingUM / 2
	if CrosstalkFrac(tight, false) <= CrosstalkFrac(g, false) {
		t.Fatal("halving the spacing should raise coupling")
	}
}

func TestMaxUnshieldedLength(t *testing.T) {
	g := Table1()[2]
	max := MaxUnshieldedLengthCM(g)
	if max >= g.LengthCM {
		t.Fatalf("unshielded max %.2f cm should fall short of the design's %.1f cm", max, g.LengthCM)
	}
	// For these cross-sections the coupled noise alone exceeds the
	// budget: no unshielded length works at all.
	if max != 0 {
		t.Fatalf("expected shields to be mandatory, got max %.2f cm", max)
	}
}

// Property: crosstalk fraction is always in (0,1) and monotone in spacing.
func TestQuickCrosstalkSane(t *testing.T) {
	f := func(rawW, rawS uint8) bool {
		w := 1.0 + float64(rawW%30)/10
		s := 0.5 + float64(rawS%40)/10
		g := Geometry{WidthUM: w, SpacingUM: s, HeightUM: 1.75, ThicknessUM: 3.0, LengthCM: 1}
		k := CrosstalkFrac(g, false)
		if k <= 0 || k >= 1 {
			return false
		}
		wider := g
		wider.SpacingUM = s * 2
		return CrosstalkFrac(wider, false) < k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
