package tlc

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"
)

// sampledGolden is one sampled cell's pinned outcome: the result fields
// every consumer reads, floats by their bits, the sampling shape, an
// FNV-64a digest of the run's metric-registry snapshot (its JSON
// encoding, as tlcbench writes it) and the three confidence half-widths.
type sampledGolden struct {
	design                  Design
	bench                   string
	cycles                  uint64
	ipc                     uint64
	l2Loads, l2Stores       uint64
	missesPer1K, meanLookup uint64
	detailed                uint64
	intervals               int
	digest                  uint64
	cyclesCI                float64
	meanLookupCI            float64
	missesPer1KCI           float64
}

// sampledGoldens were recorded at commit d5ba01d, before uniform and phase
// sampling became two plans of one sample.Run.
var sampledGoldens = map[string][]sampledGolden{
	"uniform": {
		{DesignTLC, "bzip", 67796, 0x400799a7851cdd2c, 1292, 674, 0x0, 0x402add207ecfa73b, 100000, 50, 0x8593099a3cb8ff3e, 1682.0237410928532, 0.28202014978271295, 0},
		{DesignTLCOpt1000, "mcf", 133008, 0x3ff80f072cde5745, 20474, 5072, 0x3fe3d70a3d70a3d7, 0x402f4da5d2d63677, 100000, 50, 0xb41f1da7ea30014c, 5287.92388205428, 0.1521447665526726, 0.0952},
		{DesignTLCOpt500, "equake", 244456, 0x3fea2e3a86f75439, 1994, 1002, 0x40160a3d70a3d70a, 0x403077a7abc782b2, 100000, 50, 0x16cee7994c68898e, 9341.564026307371, 0.507606951197116, 0.30862300627140543},
		{DesignTLCOpt350, "applu", 359580, 0x3fe1cc6d4c1b4819, 2406, 3316, 0x4030851eb851eb85, 0x4039051b738d1658, 100000, 50, 0x796e414dce82eacc, 9515.927599556446, 1.419857792001873, 0.649431012502483},
		{DesignSNUCA2, "apache", 187024, 0x3ff11c2fbe78efdc, 4438, 2202, 0x4011147ae147ae14, 0x4035735e063ad65a, 100000, 50, 0xd54a70a8c85bff3a, 11859.31736153477, 0.3453740540532029, 0.39420380515667275},
		{DesignDNUCA, "sjbb", 120006, 0x3ffaaa534a29ec12, 1950, 1014, 0x4000147ae147ae14, 0x403000c9a633fcd9, 100000, 50, 0x72a61d4d4f86f84c, 10315.57303777158, 0.548251567909064, 0.2543072157843737},
	},
	"uniform-cmp": {
		{DesignTLC, "bzip", 231976, 0x3ffb96ccb2953825, 8822, 7776, 0x4005000000000000, 0x402b2b1f0cb5c562, 200000, 50, 0x5bdb87a33828fa4b, 22560.66152845701, 0.1314740897399356, 0.29772638445391436},
		{DesignTLCOpt1000, "mcf", 1846318, 0x3fcbbb1a238aeb4e, 47446, 18950, 0x40329eb851eb851f, 0x4039991b133da0ee, 200000, 50, 0xa0544d723bfe098b, 57208.338585545396, 0.127198468019123, 0.7320594511376793},
		{DesignTLCOpt500, "equake", 569046, 0x3fe67e68e1642fb9, 11504, 9978, 0x4022b33333333333, 0x403a009f82ab9dbb, 200000, 50, 0xf0205f6337f46a8d, 18665.093363431108, 1.1086052183516801, 0.6102458520956944},
		{DesignTLCOpt350, "applu", 744912, 0x3fe12ee8ab56666b, 13248, 15932, 0x40329d70a3d70a3d, 0x40439cde9bd37a6f, 200000, 50, 0x4da9805549b4f627, 13402.091284213819, 0.9088789134812084, 1.0240318159119859},
		{DesignSNUCA2, "apache", 493066, 0x3fe9f5c3714b70de, 16322, 13102, 0x401ba3d70a3d70a4, 0x4036a96418f8306f, 200000, 50, 0x855e6a365b5b15b8, 21282.26980210523, 0.20148518460399986, 0.41994399626616885},
		{DesignDNUCA, "sjbb", 392478, 0x3ff04e806259ebdf, 11206, 9872, 0x4014d70a3d70a3d7, 0x403712afe7e0332c, 200000, 50, 0xbdc75fbd66765831, 25918.67383286421, 1.589796524888119, 0.5539048293705336},
	},
	"phase-cmp": {
		{DesignTLC, "bzip", 243839, 0x3ffa3f300a88468f, 9092, 7866, 0x4005bd70a3d70a3c, 0x402adb67971bc72a, 140000, 14, 0xc686b49c756cc45, 1876.1247872169222, 0.10199388984323594, 0.5048694089930448},
		{DesignTLCOpt1000, "mcf", 1877532, 0x3fcb451454ac87e5, 47448, 18750, 0x40333147ae147ae2, 0x403982296cbf6235, 140000, 14, 0xa21dac47ac867657, 11386.645308949865, 0.16873836183354732, 1.6483170950584936},
		{DesignTLCOpt500, "equake", 596882, 0x3fe571dcc0dcbf53, 11639, 9784, 0x4023651eb851eb85, 0x403b2fc8cc470a3a, 140000, 14, 0x470f9927732f3599, 3941.8112512270664, 1.9235994488788388, 0.8445998799405681},
		{DesignTLCOpt350, "applu", 751138, 0x3fe10a72877c3fa7, 13323, 15606, 0x4032c33333333333, 0x4043a15e18075ee4, 140000, 14, 0xcbf415223c4caecc, 3835.4380213587788, 1.5738458564607458, 1.8203067347622188},
		{DesignSNUCA2, "apache", 492976, 0x3fe9f6fa0aeaebb8, 16377, 13383, 0x401afae147ae147a, 0x4036a40c22457620, 140000, 14, 0x6fede432a4e1e747, 3757.537222543094, 0.26352722811499807, 0.5527210517611684},
		{DesignDNUCA, "sjbb", 407475, 0x3fef69b868eb5892, 11097, 9632, 0x40144f5c28f5c28f, 0x4036b95c868b2336, 140000, 14, 0xa39cc67461570d5e, 1511.9399184500085, 2.8897989811837204, 0.42084130489510785},
	},
}

// TestSampledRunsMatchParent pins sampled runs that the committed
// artifacts do not cover: uniform sampling on one core and on a CMP, and
// phase sampling on a CMP (BENCH_phase.json replays single-core phase
// runs). Every pinned field must match bit for bit; the confidence
// half-widths, whose combination order may change, within 1e-9 relative.
// Under -short one cell per mode runs.
func TestSampledRunsMatchParent(t *testing.T) {
	store := NewCheckpointStore(0, "")
	for _, m := range sampledGoldenModes() {
		t.Run(m.name, func(t *testing.T) {
			want := sampledGoldens[m.name]
			if len(want) != len(Designs()) {
				t.Fatalf("%d golden cells, want one per design", len(want))
			}
			for i, cell := range sampledGoldenCells() {
				if testing.Short() && i > 0 {
					break
				}
				w := want[i]
				if w.design != cell.design || w.bench != cell.bench {
					t.Fatalf("golden cell %d is %v/%s, want %v/%s", i, w.design, w.bench, cell.design, cell.bench)
				}
				opt := m.opt
				opt.Checkpoints = store
				got := measureSampledGolden(t, cell.design, cell.bench, opt)
				gotCI := [3]float64{got.cyclesCI, got.meanLookupCI, got.missesPer1KCI}
				wantCI := [3]float64{w.cyclesCI, w.meanLookupCI, w.missesPer1KCI}
				for j := range gotCI {
					if math.Abs(gotCI[j]-wantCI[j]) > 1e-9*math.Abs(wantCI[j]) {
						t.Errorf("%v/%s: confidence half-width %d is %v, golden %v", cell.design, cell.bench, j, gotCI[j], wantCI[j])
					}
				}
				got.cyclesCI, got.meanLookupCI, got.missesPer1KCI = w.cyclesCI, w.meanLookupCI, w.missesPer1KCI
				if got != w {
					t.Errorf("%v/%s:\n got    %+v\n golden %+v", cell.design, cell.bench, got, w)
				}
			}
		})
	}
}

// sampledGoldenModes are the sampled shapes TestSampledRunsMatchParent
// pins: uniform -sample 50 at quick scale on one core, the same on a
// two-core producer-consumer CMP, and phase 40/14 on that CMP.
func sampledGoldenModes() []struct {
	name string
	opt  Options
} {
	uniform := quickOptions()
	uniform.SampleIntervals, uniform.SampleLength = 50, 2_000
	cmp := uniform
	cmp.Cores, cmp.Sharing = 2, SharingSpec{Pattern: "producer-consumer"}
	phase := cmp
	phase.SampleIntervals = 0
	phase.PhaseWindows, phase.PhaseClusters = 40, 14
	return []struct {
		name string
		opt  Options
	}{{"uniform", uniform}, {"uniform-cmp", cmp}, {"phase-cmp", phase}}
}

// sampledGoldenCells pairs design i with benchmark 2i, so the six cells
// of a mode cover every design and half the benchmarks.
func sampledGoldenCells() []sampledGolden {
	var cells []sampledGolden
	for i, d := range Designs() {
		cells = append(cells, sampledGolden{design: d, bench: Benchmarks()[2*i%len(Benchmarks())]})
	}
	return cells
}

// measureSampledGolden runs one golden cell.
func measureSampledGolden(t *testing.T, d Design, bench string, opt Options) sampledGolden {
	t.Helper()
	var enc []byte
	opt.OnMetrics = func(ev MetricsEvent) {
		var err error
		if enc, err = json.Marshal(ev.Snapshot); err != nil {
			t.Fatal(err)
		}
	}
	res, err := RunSampled(d, bench, opt)
	if err != nil {
		t.Fatalf("%v/%s: %v", d, bench, err)
	}
	h := fnv.New64a()
	h.Write(enc)
	return sampledGolden{
		design:        d,
		bench:         bench,
		cycles:        res.Cycles,
		ipc:           math.Float64bits(res.IPC),
		l2Loads:       res.L2Loads,
		l2Stores:      res.L2Stores,
		missesPer1K:   math.Float64bits(res.MissesPer1K),
		meanLookup:    math.Float64bits(res.MeanLookup),
		detailed:      res.DetailedInstructions,
		intervals:     res.Intervals,
		digest:        h.Sum64(),
		cyclesCI:      res.CyclesCI,
		meanLookupCI:  res.MeanLookupCI,
		missesPer1KCI: res.MissesPer1KCI,
	}
}
