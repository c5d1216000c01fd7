package power

import (
	"testing"

	"tlc/internal/config"
	"tlc/internal/mem"
	"tlc/internal/noc"
	"tlc/internal/sim"
	"tlc/internal/tlcache"
)

func TestMeshEnergyAccumulatesWithTraffic(t *testing.T) {
	m := noc.New(config.NUCAFor(config.DNUCA).Mesh)
	if MeshEnergyJ(m) != 0 {
		t.Fatal("idle mesh should have zero dynamic energy")
	}
	m.Route(0, 0, 10, 64, noc.ToBank)
	e1 := MeshEnergyJ(m)
	if e1 <= 0 {
		t.Fatal("traffic should dissipate energy")
	}
	m.Route(100, 0, 10, 64, noc.ToBank)
	if MeshEnergyJ(m) <= e1 {
		t.Fatal("more traffic should dissipate more energy")
	}
}

func TestMeshPowerAveragesOverTime(t *testing.T) {
	m := noc.New(config.NUCAFor(config.DNUCA).Mesh)
	m.Route(0, 0, 10, 64, noc.ToBank)
	p1 := MeshDynamicPowerW(m, 1000)
	p2 := MeshDynamicPowerW(m, 2000)
	if p1 <= 0 || p2 != p1/2 {
		t.Fatalf("power should scale inversely with window: %v vs %v", p1, p2)
	}
	if MeshDynamicPowerW(m, 0) != 0 {
		t.Fatal("zero-length window should report zero power")
	}
}

func TestTLCPowerBelowDNUCAForSameTraffic(t *testing.T) {
	// Route comparable traffic through both networks and compare energy:
	// the paper's Table 9 claim in microcosm.
	mesh := noc.New(config.NUCAFor(config.DNUCA).Mesh)
	tl := tlcache.New(config.TLC, 300)
	for i := 0; i < 200; i++ {
		at := uint64(i * 50)
		mesh.Route(nocTime(at), i%16, 8, 72, noc.ToBank)
		mesh.Route(nocTime(at+20), i%16, 8, 72, noc.ToController)
		tl.Access(nocTime(at), mem.Request{Block: mem.Block(i), Type: mem.Load})
	}
	meshP := MeshDynamicPowerW(mesh, 10000)
	tlP := TLCDynamicPowerW(tl, 10000)
	if tlP >= meshP {
		t.Fatalf("TLC network power %.2g W should undercut the mesh %.2g W", tlP, meshP)
	}
}

func TestRCWireEnergyScalesWithLength(t *testing.T) {
	if RCWireEnergyPerBitJ(10) <= RCWireEnergyPerBitJ(1) {
		t.Fatal("longer wires should cost more per bit")
	}
}

// nocTime adapts a plain integer to the sim.Time the interfaces expect.
func nocTime(v uint64) sim.Time { return sim.Time(v) }
