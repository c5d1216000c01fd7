package tlc

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"tlc/internal/cache"
	"tlc/internal/l2"
	"tlc/internal/nuca"
	"tlc/internal/snapshot"
	"tlc/internal/tlcache"
	"tlc/internal/workload"
)

// corruptLastBank returns a copy of an L2 state whose last bank array has
// a recency rank outside the set's associativity: decodable, the right
// shape, and rejected only when that bank restores — after every earlier
// bank already has.
func corruptLastBank(t *testing.T, st l2.State) l2.State {
	t.Helper()
	corrupt := func(banks []cache.SetAssocState) []cache.SetAssocState {
		banks = slices.Clone(banks)
		last := &banks[len(banks)-1]
		last.LRU = slices.Clone(last.LRU)
		last.LRU[0] = 255
		return banks
	}
	switch st := st.(type) {
	case nuca.SNUCAState:
		return nuca.SNUCAState{Banks: corrupt(st.Banks)}
	case tlcache.State:
		return tlcache.State{Groups: corrupt(st.Groups), PTags: st.PTags}
	}
	t.Fatalf("no corruption for L2 state %T", st)
	return nil
}

// TestRestoreIsAllOrNothing pins the restore contract: a checkpoint whose
// core state is real but whose last L2 bank is malformed fails partway
// through restore, and the run must then warm a freshly built machine —
// matching a run with no checkpoint store in its Result and its whole
// registry — rather than warm on top of the half-restored one.
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

			// Capture a real checkpoint, then store a copy with a bad last bank.
			o := opt
			o.Checkpoints = NewCheckpointStore(0, "")
			run(o)
			warmSeed, warm := warmPlan(spec, o)
			key := snapshot.Key{Config: configHash(d, spec, o.cmpConfig()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
			ckp, ok := o.Checkpoints.Get(key)
			if !ok {
				t.Fatalf("%v/%d cores: no checkpoint stored", d, cores)
			}
			ckp.L2 = corruptLastBank(t, ckp.L2)
			o.Checkpoints = NewCheckpointStore(0, "")
			o.Checkpoints.Put(key, ckp)

			got, gotSnap := run(o)
			if got != want || !reflect.DeepEqual(gotSnap, wantSnap) {
				t.Errorf("%v/%d cores: run over a corrupt checkpoint differs from a run without a store", d, cores)
			}
			if st := o.Checkpoints.Stats(); st.Hits != 1 || st.Puts != 2 {
				t.Errorf("%v/%d cores: store stats %+v, want the corrupt hit rejected and a re-warmed put", d, cores, st)
			}
		}
	}
}

// fuzzCheckpointOptions is the small run FuzzCheckpointRestore drives: the
// checkpoint still holds the full L2, but warm-up and timing stay short.
func fuzzCheckpointOptions(cores int) Options {
	o := Options{WarmInstructions: 50_000, RunInstructions: 10_000, Seed: 3}
	return withSharing(withCores(o, cores), SharingSpec{Pattern: "migratory"})
}

// FuzzCheckpointRestore feeds damaged checkpoints to a run through the
// checkpoint store's disk tier, under the file name the run's key reads.
// The seeds are real gob-encoded 1-core and 2-core checkpoints of the
// current envelope; each input overwrites bytes of one at an offset, or
// replaces its tail (a torn write). The fuzzer mutates the small patch,
// not the megabytes of checkpoint around it. Every input must end as a
// miss or a completed run — never a panic.
func FuzzCheckpointRestore(f *testing.F) {
	spec := workload.Specs()[2]
	d := DesignDNUCA
	names := map[int]string{}
	seeds := map[int][]byte{}
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
		// The seed must restore: a fresh store over the directory hits the
		// disk tier and stores nothing new.
		o.Checkpoints = NewCheckpointStore(0, dir)
		if _, err := RunSpec(d, spec, o); err != nil {
			f.Fatal(err)
		}
		if st := o.Checkpoints.Stats(); st.DiskHits != 1 || st.Puts != 0 {
			f.Fatalf("%d-core seed did not restore: store stats %+v", cores, st)
		}
		names[cores], seeds[cores] = filepath.Base(files[0]), data
		f.Add(uint8(cores), uint32(0), []byte(nil), false)
		f.Add(uint8(cores), uint32(len(data)/2), []byte{0xff, 0xff, 0xff, 0xff}, false)
		f.Add(uint8(cores), uint32(len(data)-64), []byte(nil), true)
	}
	f.Fuzz(func(t *testing.T, width uint8, at uint32, patch []byte, tail bool) {
		cores := 2 - int(width%2)
		data := slices.Clone(seeds[cores])
		off := int(at % uint32(len(data)))
		if tail {
			data = append(data[:off], patch...)
		} else {
			copy(data[off:], patch)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, names[cores]), data, 0o644); err != nil {
			t.Fatal(err)
		}
		o := fuzzCheckpointOptions(cores)
		o.Checkpoints = NewCheckpointStore(0, dir)
		if _, err := RunSpec(d, spec, o); err != nil {
			t.Fatalf("%d-core run over a damaged checkpoint: %v", cores, err)
		}
	})
}
