package area

import (
	"math"
	"testing"
	"testing/quick"

	"tlc/internal/config"
)

func TestBankAreaMatchesTable7Anchors(t *testing.T) {
	// 256 x 64 KB ~ 92 mm^2; 32 x 512 KB = 77 mm^2.
	dnuca := 256 * BankAreaMM2(64*1024)
	tlc := 32 * BankAreaMM2(512*1024)
	if math.Abs(dnuca-92) > 4 {
		t.Errorf("DNUCA storage %.1f mm2, want ~92", dnuca)
	}
	if math.Abs(tlc-77) > 2 {
		t.Errorf("TLC storage %.1f mm2, want ~77", tlc)
	}
}

func TestSmallBanksAreLessDense(t *testing.T) {
	small := BankAreaMM2(64*1024) / (64.0 / 1024)
	large := BankAreaMM2(1024*1024) / 1.0
	if small <= large {
		t.Fatal("per-MB area should shrink with bank size (periphery amortization)")
	}
}

func TestBankModelsPanicOnBadSize(t *testing.T) {
	for _, fn := range []func(){
		func() { BankAreaMM2(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad bank size did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestTable7Shape(t *testing.T) {
	dn := DesignArea(config.DNUCA)
	tl := DesignArea(config.TLC)
	// Paper: DNUCA 110 mm^2 total, TLC 91; TLC saves ~18%.
	if math.Abs(dn.TotalMM2()-110) > 8 {
		t.Errorf("DNUCA total %.1f mm2, want ~110", dn.TotalMM2())
	}
	if math.Abs(tl.TotalMM2()-91) > 4 {
		t.Errorf("TLC total %.1f mm2, want ~91", tl.TotalMM2())
	}
	savings := 1 - tl.TotalMM2()/dn.TotalMM2()
	if savings < 0.12 || savings > 0.22 {
		t.Errorf("TLC area savings %.0f%%, want ~18%%", savings*100)
	}
	// Component shapes: DNUCA pays in channels, TLC in the controller.
	if dn.ChannelMM2 < 5*tl.ChannelMM2 {
		t.Error("DNUCA's mesh channels should dwarf TLC's controller runs")
	}
	if tl.ControlMM2 < 5*dn.ControlMM2 {
		t.Error("TLC's line-landing controller should dwarf DNUCA's partial tags")
	}
}

func TestOptimizedControllersShrink(t *testing.T) {
	base := DesignArea(config.TLC).ControlMM2
	prev := base
	for _, d := range []config.Design{config.TLCOpt1000, config.TLCOpt500, config.TLCOpt350} {
		got := DesignArea(d).ControlMM2
		if got >= prev {
			t.Fatalf("%v controller %.2f mm2 not smaller than predecessor %.2f", d, got, prev)
		}
		prev = got
	}
}

func TestControllerDimsFollowLineCount(t *testing.T) {
	base := ControllerDims(config.TLCFor(config.TLC))
	opt := ControllerDims(config.TLCFor(config.TLCOpt350))
	if opt.HeightMM >= base.HeightMM {
		t.Fatal("fewer lines must mean a shorter controller strip")
	}
	if base.AreaMM2() != base.HeightMM*base.WidthMM {
		t.Fatal("area arithmetic wrong")
	}
}

func TestTable8Shape(t *testing.T) {
	dn := DesignTransistors(config.DNUCA)
	tl := DesignTransistors(config.TLC)
	// Paper: 1.2e7 vs 1.9e5 transistors (>50x), 440 vs 20 Mlambda.
	if ratio := float64(dn.Count) / float64(tl.Count); ratio < 50 {
		t.Errorf("transistor ratio %.0fx, want >50x", ratio)
	}
	if dn.Count < 0.8e7 || dn.Count > 1.6e7 {
		t.Errorf("DNUCA transistors %.2g, want ~1.2e7", float64(dn.Count))
	}
	if tl.Count < 1.5e5 || tl.Count > 2.4e5 {
		t.Errorf("TLC transistors %.2g, want ~1.9e5", float64(tl.Count))
	}
	if dn.GateWidthLambda < 350e6 || dn.GateWidthLambda > 550e6 {
		t.Errorf("DNUCA gate width %.0f Mlambda, want ~440", dn.GateWidthLambda/1e6)
	}
	if tl.GateWidthLambda < 14e6 || tl.GateWidthLambda > 26e6 {
		t.Errorf("TLC gate width %.0f Mlambda, want ~20", tl.GateWidthLambda/1e6)
	}
}

func TestOptimizedDesignsUseFewerTransistors(t *testing.T) {
	prev := DesignTransistors(config.TLC).Count
	for _, d := range []config.Design{config.TLCOpt1000, config.TLCOpt500, config.TLCOpt350} {
		got := DesignTransistors(d).Count
		if got >= prev {
			t.Fatalf("%v should need fewer line interfaces than its predecessor", d)
		}
		prev = got
	}
}

// Property: bank area is monotone in size and superlinear amortization
// never makes a bigger bank smaller in absolute terms.
func TestQuickBankAreaMonotone(t *testing.T) {
	f := func(raw uint8) bool {
		kb := 16 << (raw % 8) // 16KB .. 2MB
		a := BankAreaMM2(kb * 1024)
		b := BankAreaMM2(kb * 2048)
		return b > a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
