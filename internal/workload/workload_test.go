package workload

import (
	"math"
	"testing"
	"testing/quick"

	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

func TestTwelveBenchmarks(t *testing.T) {
	specs := Specs()
	if len(specs) != 12 {
		t.Fatalf("%d specs, want the paper's 12 benchmarks", len(specs))
	}
	want := []string{"bzip", "gcc", "mcf", "perl", "equake", "swim", "applu", "lucas",
		"apache", "zeus", "sjbb", "oltp"}
	for i, name := range want {
		if specs[i].Name != name {
			t.Fatalf("spec %d is %q, want %q (Table 6 order)", i, specs[i].Name, name)
		}
	}
	if names := Names(); len(names) != 12 || names[0] != "bzip" {
		t.Fatal("Names() disagrees with Specs()")
	}
}

func TestSpecByName(t *testing.T) {
	s, ok := SpecByName("mcf")
	if !ok || s.Name != "mcf" {
		t.Fatal("SpecByName(mcf) failed")
	}
	if _, ok := SpecByName("doom"); ok {
		t.Fatal("unknown benchmark resolved")
	}
}

func TestSpecFractionsSane(t *testing.T) {
	for _, s := range Specs() {
		sum := s.L1Frac + s.HotFrac + s.StreamFrac + s.RecentFrac
		if sum > 1 {
			t.Errorf("%s: region fractions sum to %.3f > 1", s.Name, sum)
		}
		if s.MemFrac <= 0 || s.MemFrac > 0.5 {
			t.Errorf("%s: memory-op density %.2f implausible", s.Name, s.MemFrac)
		}
		if s.StoreFrac < 0 || s.StoreFrac > 0.5 {
			t.Errorf("%s: store fraction %.2f implausible", s.Name, s.StoreFrac)
		}
		if s.L1MB+s.HotMB >= s.FootprintMB {
			t.Errorf("%s: regions exceed footprint", s.Name)
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	spec, _ := SpecByName("gcc")
	a := New(spec, 7)
	b := New(spec, 7)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(spec, 8)
	same := true
	a2 := New(spec, 7)
	for i := 0; i < 10000; i++ {
		if a2.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestMemoryOpDensity(t *testing.T) {
	spec, _ := SpecByName("gcc") // MemFrac 0.35
	g := New(spec, 1)
	memOps := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if g.Next().IsMem {
			memOps++
		}
	}
	got := float64(memOps) / n
	if math.Abs(got-spec.MemFrac) > 0.01 {
		t.Fatalf("memory-op density %.3f, want %.3f", got, spec.MemFrac)
	}
}

func TestStoreFraction(t *testing.T) {
	spec, _ := SpecByName("gcc")
	g := New(spec, 1)
	stores, memOps := 0, 0
	for i := 0; i < 300000; i++ {
		in := g.Next()
		if in.IsMem {
			memOps++
			if in.IsStore {
				stores++
			}
		}
	}
	got := float64(stores) / float64(memOps)
	if math.Abs(got-spec.StoreFrac) > 0.02 {
		t.Fatalf("store fraction %.3f, want %.3f", got, spec.StoreFrac)
	}
}

func TestStreamSpatialLocality(t *testing.T) {
	// A pure streaming spec touches each block StreamRepeat times in a
	// row before moving on: exactly the word-granularity reuse an L1
	// absorbs.
	spec := Spec{Name: "s", FootprintMB: 64, StreamFrac: 1, MemFrac: 1, StreamRepeat: 8}
	g := New(spec, 1)
	prev := g.Next().Block
	repeats, advances := 0, 0
	for i := 0; i < 8000; i++ {
		b := g.Next().Block
		if b == prev {
			repeats++
		} else {
			advances++
		}
		prev = b
	}
	ratio := float64(repeats) / float64(advances)
	if ratio < 6.5 || ratio > 8.5 {
		t.Fatalf("stream repeat ratio %.1f, want ~7 (8 refs per block)", ratio)
	}
}

func TestStreamAdvancesSequentiallyWithinChunks(t *testing.T) {
	spec := Spec{Name: "s", FootprintMB: 64, StreamFrac: 1, MemFrac: 1, StreamRepeat: 1}
	g := New(spec, 1)
	prev := g.Next().Block
	sequential := 0
	const n = 4000
	for i := 0; i < n; i++ {
		b := g.Next().Block
		if b == prev+1 {
			sequential++
		}
		prev = b
	}
	// All but one-in-4096 (chunk boundary) steps are +1.
	if sequential < n*99/100 {
		t.Fatalf("only %d/%d stream steps sequential", sequential, n)
	}
}

func TestLayoutInjectiveAndChunked(t *testing.T) {
	seen := map[mem.Block]uint64{}
	for id := uint64(0); id < 1<<16; id++ {
		b := layout(id)
		if prev, dup := seen[b]; dup {
			t.Fatalf("layout collision: ids %d and %d both map to %v", prev, id, b)
		}
		seen[b] = id
		// Within-chunk contiguity: ids in the same 4K-block chunk stay
		// adjacent.
		if id%4096 != 0 {
			if b != layout(id-1)+1 {
				t.Fatalf("id %d not adjacent to predecessor within chunk", id)
			}
		}
	}
}

func TestLayoutScattersChunks(t *testing.T) {
	// Chunk numbers must not remain consecutive: tags need diversity.
	a := uint64(layout(0)) >> 12
	b := uint64(layout(4096)) >> 12
	c := uint64(layout(8192)) >> 12
	if b == a+1 || c == b+1 {
		t.Fatal("layout left chunks consecutive")
	}
}

func TestDependentLoadFraction(t *testing.T) {
	spec, _ := SpecByName("mcf") // DepFrac 0.75
	g := New(spec, 1)
	deps, loads := 0, 0
	for i := 0; i < 300000; i++ {
		in := g.Next()
		if in.IsMem && !in.IsStore {
			loads++
			if in.Dep {
				deps++
			}
		}
	}
	got := float64(deps) / float64(loads)
	if math.Abs(got-spec.DepFrac) > 0.02 {
		t.Fatalf("dependent-load fraction %.3f, want %.3f", got, spec.DepFrac)
	}
}

func TestMispredictRate(t *testing.T) {
	spec, _ := SpecByName("gcc")
	g := New(spec, 1)
	mispredicts := 0
	const n = 500000
	for i := 0; i < n; i++ {
		if g.Next().Mispredict {
			mispredicts++
		}
	}
	// Default: one per 250 non-memory instructions.
	expected := float64(n) * (1 - spec.MemFrac) / 250
	if float64(mispredicts) < expected*0.7 || float64(mispredicts) > expected*1.3 {
		t.Fatalf("%d mispredicts, want ~%.0f", mispredicts, expected)
	}
}

// fakeCache records Warm calls for pre-warm verification.
type fakeCache struct {
	warmed map[mem.Block]bool
}

func (f *fakeCache) Access(at sim.Time, req mem.Request) l2.Outcome { return l2.Outcome{} }
func (f *fakeCache) Warm(b mem.Block)                               { f.warmed[b] = true }
func (f *fakeCache) Contains(b mem.Block) bool                      { return f.warmed[b] }

func TestPreWarmCoversHotRegions(t *testing.T) {
	spec, _ := SpecByName("gcc")
	g := New(spec, 1)
	f := &fakeCache{warmed: map[mem.Block]bool{}}
	g.PreWarm(f)
	// Every hot and L1 block must be pre-warmed; sample the generator to
	// confirm hot references land on warmed blocks.
	gen := New(spec, 2)
	misses := 0
	for i := 0; i < 100000; i++ {
		in := gen.Next()
		if in.IsMem && !f.warmed[in.Block] {
			misses++
		}
	}
	// gcc's footprint fits the cache entirely: everything is warm.
	if misses != 0 {
		t.Fatalf("%d references to unwarmed blocks for an in-cache footprint", misses)
	}
}

func TestPreWarmBoundedByCapacity(t *testing.T) {
	spec, _ := SpecByName("swim") // 192 MB footprint
	g := New(spec, 1)
	f := &fakeCache{warmed: map[mem.Block]bool{}}
	g.PreWarm(f)
	if len(f.warmed) > l2CapacityBlocks {
		t.Fatalf("pre-warm installed %d blocks, beyond the 16 MB capacity %d",
			len(f.warmed), l2CapacityBlocks)
	}
	// Three quarters of the remaining capacity plus the hot regions: the
	// deliberate per-set slack (see PreWarm).
	if len(f.warmed) < l2CapacityBlocks*7/10 {
		t.Fatalf("pre-warm installed only %d blocks for a huge footprint", len(f.warmed))
	}
}

func TestAutoWarmInstructions(t *testing.T) {
	gcc, _ := SpecByName("gcc")
	bzip, _ := SpecByName("bzip")
	if gcc.AutoWarmInstructions() < 4_000_000 {
		t.Fatal("auto warm below the floor")
	}
	if bzip.AutoWarmInstructions() <= gcc.AutoWarmInstructions() {
		t.Fatal("bzip's sparse hot set needs a longer warm than gcc's dense one")
	}
	if bzip.AutoWarmInstructions() > 24_000_000 {
		t.Fatal("auto warm above the cap")
	}
}

func TestBadSpecsPanic(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "nofootprint"},
		{Name: "overflow", FootprintMB: 1, HotMB: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %q did not panic", spec.Name)
				}
			}()
			New(spec, 1)
		}()
	}
}

// Property: every generated address falls inside the laid-out footprint
// image, and the generator never emits a store marked dependent.
func TestQuickGeneratorWellFormed(t *testing.T) {
	spec, _ := SpecByName("apache")
	f := func(seed int64) bool {
		g := New(spec, seed)
		valid := map[mem.Block]bool{}
		for id := uint64(0); id < g.l1Blocks+g.hotBlocks+g.coldBlocks; id++ {
			valid[layout(id)] = true
		}
		for i := 0; i < 5000; i++ {
			in := g.Next()
			if !in.IsMem {
				continue
			}
			if in.IsStore && in.Dep {
				return false
			}
			if !valid[in.Block] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
