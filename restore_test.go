package tlc

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/l2"
	"tlc/internal/mem"
	"tlc/internal/nuca"
	"tlc/internal/snapshot"
	"tlc/internal/tlcache"
	"tlc/internal/workload"
)

// corruptLastBank returns a copy of an L2 state whose last bank array
// corrupt has damaged: decodable, the right shape, and rejected only when
// that bank restores — after every earlier bank already has.
func corruptLastBank(t *testing.T, st l2.State, corrupt func(*cache.SetAssocState)) l2.State {
	t.Helper()
	damage := func(banks []cache.SetAssocState) []cache.SetAssocState {
		banks = slices.Clone(banks)
		last := &banks[len(banks)-1]
		last.Lines, last.LRU = slices.Clone(last.Lines), slices.Clone(last.LRU)
		corrupt(last)
		return banks
	}
	switch st := st.(type) {
	case nuca.SNUCAState:
		return nuca.SNUCAState{Banks: damage(st.Banks)}
	case tlcache.State:
		return tlcache.State{Groups: damage(st.Groups), PTags: st.PTags}
	}
	t.Fatalf("no corruption for L2 state %T", st)
	return nil
}

// bankCorruptions are the damaged bank arrays TestRestoreIsAllOrNothing
// stores: a recency rank outside the set's associativity, and a way of the
// last set holding a block of set 0, which that set's lookups never reach.
var bankCorruptions = map[string]func(*cache.SetAssocState){
	"rank out of range": func(st *cache.SetAssocState) { st.LRU[0] = 255 },
	"line outside its set": func(st *cache.SetAssocState) {
		st.Lines[(st.Sets-1)*st.Assoc] = mem.Block(st.Sets)
	},
}

// TestRestoreIsAllOrNothing pins the restore contract: a checkpoint on
// disk whose core state is real but whose last L2 bank is malformed fails
// partway through restore, and the run must then warm a freshly built
// machine — matching a run with no checkpoint store in its Result and its
// whole registry — rather than warm on top of the half-restored one.
func TestRestoreIsAllOrNothing(t *testing.T) {
	// A small footprint re-warmed over leftover state can converge to the
	// state a fresh warm-up reaches; oltp's large one does not, so a warm
	// on top of a half-restored machine shows in the results.
	spec, _ := workload.SpecByName("oltp")
	for _, d := range []Design{DesignSNUCA2, DesignTLC} {
		for _, cores := range []int{1, 2} {
			opt := withSharing(withCores(cmpOptions(), cores), SharingSpec{Pattern: "producer-consumer"})
			run := func(o Options) (Result, MetricsSnapshot) {
				var snap MetricsSnapshot
				o.OnMetrics = func(ev MetricsEvent) { snap = ev.Snapshot }
				res, err := RunSpec(d, spec, o)
				if err != nil {
					t.Fatalf("%v/%d cores: %v", d, cores, err)
				}
				return res, snap
			}
			want, wantSnap := run(opt)

			// Capture a real checkpoint, then store copies with a bad last bank.
			o := opt
			o.Checkpoints = NewCheckpointStore(0, "")
			run(o)
			warmSeed, warm := warmPlan(spec, o)
			key := snapshot.Key{Config: configHash(d, spec, o.cmpConfig()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
			ckp, ok := o.Checkpoints.Get(key)
			if !ok {
				t.Fatalf("%v/%d cores: no checkpoint stored", d, cores)
			}
			for name, corrupt := range bankCorruptions {
				bad := ckp
				bad.L2 = corruptLastBank(t, ckp.L2, corrupt)
				dir := t.TempDir()
				NewCheckpointStore(0, dir).Put(key, bad)
				o.Checkpoints = NewCheckpointStore(0, dir)

				got, gotSnap := run(o)
				if got != want || !reflect.DeepEqual(gotSnap, wantSnap) {
					t.Errorf("%v/%d cores, %s: run over a corrupt checkpoint differs from a run without a store", d, cores, name)
				}
				if st := o.Checkpoints.Stats(); st.DiskHits != 1 || st.Puts != 1 {
					t.Errorf("%v/%d cores, %s: store stats %+v, want the corrupt disk hit rejected and a re-warmed put", d, cores, name, st)
				}
			}
		}
	}
}

// fuzzCheckpointOptions is the small run whose checkpoints seed
// FuzzCheckpointRestore: the checkpoint still holds the full L2, but the
// warm-up that produces it stays short.
func fuzzCheckpointOptions(cores int) Options {
	o := Options{WarmInstructions: 50_000, RunInstructions: 10_000, Seed: 3}
	return withSharing(withCores(o, cores), SharingSpec{Pattern: "migratory"})
}

// restoreFromDisk decodes the checkpoint stored under key in dir through a
// fresh store's disk tier and restores it into a freshly built machine, as
// prepare does before any warm-up. It reports whether the checkpoint
// restored; false is a miss, which prepare answers by warming.
func restoreFromDisk(d Design, spec workload.Spec, o Options, key snapshot.Key, dir string) bool {
	ckp, ok := NewCheckpointStore(0, dir).Get(key)
	return ok && newRig(d, spec, key.Seed, o).restore(ckp) == nil
}

// FuzzCheckpointRestore feeds damaged checkpoints through the checkpoint
// store's disk tier, under the file name the run's key reads, and restores
// whatever decodes into a freshly built machine — no warm-up and no timed
// run, so each execution costs one decode and one restore. The seeds are
// real gob-encoded 1-core and 2-core checkpoints of the current envelope;
// each input overwrites bytes of one at an offset, or replaces its tail (a
// torn write). The fuzzer mutates the small patch, not the megabytes of
// checkpoint around it. Every input must end as a miss or a clean restore
// — never a panic.
func FuzzCheckpointRestore(f *testing.F) {
	spec := workload.Specs()[2]
	d := DesignDNUCA
	type seed struct {
		opt  Options
		key  snapshot.Key
		dir  string
		name string
		data []byte
	}
	seeds := map[int]seed{}
	for _, cores := range []int{1, 2} {
		dir := f.TempDir()
		o := fuzzCheckpointOptions(cores)
		o.Checkpoints = NewCheckpointStore(0, dir)
		if _, err := RunSpec(d, spec, o); err != nil {
			f.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gob"))
		if err != nil || len(files) != 1 {
			f.Fatalf("%d-core checkpoint files: %v (%v)", cores, files, err)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			f.Fatal(err)
		}
		warmSeed, warm := warmPlan(spec, o)
		key := snapshot.Key{Config: configHash(d, spec, o.cmpConfig()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
		if !restoreFromDisk(d, spec, o, key, dir) {
			f.Fatalf("%d-core seed checkpoint does not restore", cores)
		}
		seeds[cores] = seed{opt: o, key: key, dir: dir, name: filepath.Base(files[0]), data: data}
		f.Add(uint8(cores), uint32(0), []byte(nil), false)
		f.Add(uint8(cores), uint32(len(data)/2), []byte{0xff, 0xff, 0xff, 0xff}, false)
		f.Add(uint8(cores), uint32(len(data)-64), []byte(nil), true)
	}
	// One seed damages the L2 line array: the 1-core checkpoint with one
	// valid line of the first bank moved out of its set. Encoding the
	// damaged checkpoint in this process gives the same bytes but the
	// line's, so the differing span is the patch.
	s := seeds[1]
	ckp, ok := NewCheckpointStore(0, s.dir).Get(s.key)
	if !ok {
		f.Fatal("1-core seed checkpoint missing")
	}
	dir := f.TempDir()
	ckp.L2 = corruptFirstLine(f, ckp.L2.(nuca.DNUCAState))
	NewCheckpointStore(0, dir).Put(s.key, ckp)
	moved, err := os.ReadFile(filepath.Join(dir, s.name))
	if err != nil || len(moved) != len(s.data) {
		f.Fatalf("re-encoded checkpoint: %d bytes (%v), want %d", len(moved), err, len(s.data))
	}
	lo := 0
	for lo < len(moved) && moved[lo] == s.data[lo] {
		lo++
	}
	hi := len(moved)
	for hi > lo && moved[hi-1] == s.data[hi-1] {
		hi--
	}
	if lo == hi || restoreFromDisk(d, spec, s.opt, s.key, dir) {
		f.Fatal("the damaged line left the checkpoint unchanged or restorable")
	}
	f.Add(uint8(1), uint32(lo), moved[lo:hi], false)

	f.Fuzz(func(t *testing.T, width uint8, at uint32, patch []byte, tail bool) {
		s := seeds[2-int(width%2)]
		data := slices.Clone(s.data)
		off := int(at % uint32(len(data)))
		if tail {
			data = append(data[:off], patch...)
		} else {
			copy(data[off:], patch)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, s.name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		restoreFromDisk(d, spec, s.opt, s.key, dir)
	})
}

// corruptFirstLine returns a copy of a DNUCA state whose first bank's
// first occupied way has its block's lowest bit flipped: a block of a
// neighbouring set.
func corruptFirstLine(f *testing.F, st nuca.DNUCAState) nuca.DNUCAState {
	banks := slices.Clone(st.Banks)
	col := slices.Clone(banks[0])
	arr := col[0]
	arr.Lines = slices.Clone(arr.Lines)
	i := slices.IndexFunc(arr.Lines, func(b mem.Block) bool { return b != ^mem.Block(0) })
	if i < 0 {
		f.Fatal("first DNUCA bank holds no line")
	}
	arr.Lines[i] ^= 1
	col[0], banks[0] = arr, col
	return nuca.DNUCAState{Banks: banks, PTags: st.PTags}
}
