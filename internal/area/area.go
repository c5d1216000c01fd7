// Package area is the ECACTI-substitute bank model plus the Table 7
// substrate-area roll-up. The bank access-time and density curves are
// anchored on the paper's three operating points — 64 KB banks at 3
// cycles, 512 KB at 8, 1 MB at 10 (Table 2) — and the Table 7 areas
// (DNUCA's 256 small banks cost more area per megabyte than TLC's 32
// dense banks).
package area

import (
	"fmt"
	"math"

	"tlc/internal/config"
	"tlc/internal/noc"
	"tlc/internal/tline"
	"tlc/internal/wire"
)

// BankAreaMM2 models bank substrate area: cell area plus periphery
// (decoders, sense amplifiers) whose relative cost shrinks with bank size.
// Fit to Table 7: 256 x 64 KB = 92 mm^2, 32 x 512 KB = 77 mm^2.
func BankAreaMM2(bytes int) float64 {
	if bytes <= 0 {
		panic(fmt.Sprintf("area: non-positive bank size %d", bytes))
	}
	mb := float64(bytes) / (1024 * 1024)
	perMB := 4.378 + 0.3055/math.Sqrt(mb)
	return perMB * mb
}

// Breakdown is one Table 7 row.
type Breakdown struct {
	Design     config.Design
	StorageMM2 float64
	ChannelMM2 float64
	ControlMM2 float64
}

// TotalMM2 sums the breakdown.
func (b Breakdown) TotalMM2() float64 { return b.StorageMM2 + b.ChannelMM2 + b.ControlMM2 }

// controllerDepthMM is the logic depth of the TLC controller strip.
const controllerDepthMM = 1.05

// DesignArea computes the Table 7 breakdown for any design.
func DesignArea(d config.Design) Breakdown {
	switch d {
	case config.SNUCA2, config.DNUCA:
		p := config.NUCAFor(d)
		m := noc.New(p.Mesh)
		storage := float64(p.Banks) * BankAreaMM2(p.BankBytes)
		// Channel: every link segment is FlitBytes*8 parallel wires at the
		// conventional global pitch, running one segment length over
		// substrate reserved for repeaters and via farms.
		gw := wire.Global45()
		segMM := p.Mesh.VertSegMM
		tracks := p.Mesh.FlitBytes * 8
		channel := gw.ChannelAreaMM2(tracks*m.SegmentCount(), segMM)
		// Controller: the partial-tag structure (DNUCA) or a plain bank
		// scheduler (SNUCA2).
		control := 0.2
		if d == config.DNUCA {
			lines := 16 * 1024 * 1024 / 64 // 256K cache lines
			bits := float64(lines * 6)
			const mm2PerMbit = 0.6
			control = bits/1e6*mm2PerMbit + 0.15
		}
		return Breakdown{Design: d, StorageMM2: storage, ChannelMM2: channel, ControlMM2: control}
	default:
		p := config.TLCFor(d)
		storage := float64(p.Banks) * BankAreaMM2(p.BankBytes)
		// Channel: the transmission lines themselves fly over other logic
		// on dedicated upper layers and consume no substrate; the only
		// substrate channel is the conventional wiring from the line
		// landings to the controller center.
		gw := wire.Global45()
		ctrl := ControllerDims(p)
		avgRun := ctrl.HeightMM / 4 * 1.5 // mean Manhattan run to center
		channel := gw.ChannelAreaMM2(p.TotalLines(), avgRun)
		return Breakdown{
			Design:     d,
			StorageMM2: storage,
			ChannelMM2: channel,
			ControlMM2: ctrl.AreaMM2(),
		}
	}
}

// Dims is the TLC controller strip geometry: tall enough for every
// transmission line to land on its edges (Section 4 — the controller
// height is the sum of the lines' width and spacing).
type Dims struct {
	HeightMM float64
	WidthMM  float64
}

// AreaMM2 reports the strip area.
func (d Dims) AreaMM2() float64 { return d.HeightMM * d.WidthMM }

// ControllerDims computes the controller strip for a TLC design: half the
// lines land on each side, at each pair's Table 1 track pitch.
func ControllerDims(p config.TLCParams) Dims {
	var height float64
	for pr := 0; pr < p.Pairs(); pr++ {
		g := config.LinkGeometry(pr, p.Pairs())
		height += float64(p.LinesPerPair) * g.TrackPitchMM()
	}
	height /= 2 // lines split across the two controller edges
	return Dims{HeightMM: height, WidthMM: controllerDepthMM}
}

// NetworkTransistors is one Table 8 row.
type NetworkTransistors struct {
	Design          config.Design
	Count           int
	GateWidthLambda float64
}

// DesignTransistors computes the Table 8 communication-network transistor
// demand for any design.
func DesignTransistors(d config.Design) NetworkTransistors {
	switch d {
	case config.SNUCA2, config.DNUCA:
		p := config.NUCAFor(d)
		m := noc.New(p.Mesh)
		// The partial-tag structure is accounted as controller area in
		// Table 7; Table 8 covers the communication network proper —
		// switches, buffers, and link repeaters.
		count, width := noc.MeshTransistors(m, noc.DefaultSwitch(p.Mesh.FlitBytes))
		return NetworkTransistors{Design: d, Count: count, GateWidthLambda: width}
	default:
		p := config.TLCFor(d)
		var count int
		var width float64
		for pr := 0; pr < p.Pairs(); pr++ {
			g := config.LinkGeometry(pr, p.Pairs())
			c := tline.Interface(tline.Extract(g).Z0)
			count += p.LinesPerPair * c.Transistors
			width += float64(p.LinesPerPair) * c.GateWidthLambda
		}
		return NetworkTransistors{Design: d, Count: count, GateWidthLambda: width}
	}
}
