package tlcache

import (
	"math/rand"
	"slices"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/config"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

func TestSnapshotRoundTripAllTLCDesigns(t *testing.T) {
	for _, d := range config.TLCFamily() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			orig := New(d, 300)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 200_000; i++ {
				orig.Warm(mem.Block(rng.Int63n(1 << 20)))
			}
			st := orig.SnapshotState()

			restored := New(d, 300)
			if err := restored.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			// Identical request streams against identical functional state
			// must produce identical outcomes.
			r1 := rand.New(rand.NewSource(2))
			var at sim.Time
			for i := 0; i < 50_000; i++ {
				at += sim.Time(r1.Intn(50))
				req := mem.Request{Block: mem.Block(r1.Int63n(1 << 20)), Type: mem.Load}
				if r1.Intn(8) == 0 {
					req.Type = mem.Store
				}
				o1 := orig.Access(at, req)
				o2 := restored.Access(at, req)
				if o1 != o2 {
					t.Fatalf("request %d: original %+v, restored %+v", i, o1, o2)
				}
			}
		})
	}
}

func TestRestoreRejectsWrongGeometry(t *testing.T) {
	// TLC base (32 banks) state into TLCopt1000 (different grouping) must
	// fail rather than silently corrupt.
	st := New(config.TLC, 300).SnapshotState()
	if err := New(config.TLCOpt350, 300).RestoreState(st); err == nil {
		t.Fatal("TLCopt350 accepted a TLC-base state")
	}
	if err := New(config.TLC, 300).RestoreState(struct{}{}); err == nil {
		t.Fatal("cache accepted a foreign state type")
	}
}

func TestRestoreRejectsInconsistentPartialTags(t *testing.T) {
	for _, d := range config.TLCFamily() {
		orig := New(d, 300)
		if !orig.p.PartialTagInBank {
			continue
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 20_000; i++ {
			orig.Warm(mem.Block(rng.Int63n(1 << 20)))
		}
		st := orig.SnapshotState().(State)
		if err := New(d, 300).RestoreState(st); err != nil {
			t.Fatalf("%v: consistent state rejected: %v", d, err)
		}
		pt := st.PTags[1]
		valid := slices.IndexFunc(pt.Entry, func(e uint8) bool { return e != 0 })
		invalid := slices.Index(pt.Entry, 0)
		if valid < 0 || invalid < 0 {
			t.Fatalf("%v: shadow needs both valid and invalid entries", d)
		}
		for _, damage := range []func(*cache.PartialTagsState){
			func(p *cache.PartialTagsState) { p.Entry[valid] ^= 1 },
			func(p *cache.PartialTagsState) { p.Entry[valid] = 0 },
			func(p *cache.PartialTagsState) { p.Entry[invalid] = 0x40 },
			func(p *cache.PartialTagsState) { p.Entry[invalid] = 0x80 },
		} {
			bad := pt
			bad.Entry = slices.Clone(pt.Entry)
			damage(&bad)
			damaged := State{Groups: st.Groups, PTags: slices.Clone(st.PTags)}
			damaged.PTags[1] = bad
			if err := New(d, 300).RestoreState(damaged); err == nil {
				t.Errorf("%v: restore accepted a shadow that disagrees with its group", d)
			}
		}
	}
}
