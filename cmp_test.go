package tlc

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tlc/internal/l2"
	"tlc/internal/snapshot"
	"tlc/internal/workload"
)

// cmpOptions is the scale the CMP tests run at: enough warm-up for real
// cache state, short timed intervals.
func cmpOptions() Options {
	return Options{WarmInstructions: 200_000, RunInstructions: 100_000, Seed: 7}
}

// TestCMPRunAllDesigns drives a 2-core migratory run through every design:
// the CMP arm must compose with each of the six L2 models, produce
// machine-wide totals, and show coherence traffic.
func TestCMPRunAllDesigns(t *testing.T) {
	opt := cmpOptions()
	opt.Cores = 2
	opt.Sharing = SharingSpec{Pattern: "migratory"}
	for _, d := range Designs() {
		var snap MetricsSnapshot
		opt.OnMetrics = func(ev MetricsEvent) { snap = ev.Snapshot }
		res, err := RunSpec(d, workload.Specs()[1], opt)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Instructions != 2*opt.RunInstructions {
			t.Fatalf("%v: %d instructions, want %d", d, res.Instructions, 2*opt.RunInstructions)
		}
		if res.Cycles == 0 || res.IPC <= 0 {
			t.Fatalf("%v: empty timing: %+v", d, res)
		}
		for _, name := range []string{"coh.busrd", "coh.busrdx", "cmp.arb.requests", "noc.port.injections"} {
			if v, ok := snap.Value(name); !ok || v == 0 {
				t.Fatalf("%v: metric %s = %v (present %v), want nonzero", d, name, v, ok)
			}
		}
		if v, ok := snap.Value("coh.invalidations"); !ok || v == 0 {
			t.Fatalf("%v: no invalidations under migratory sharing (got %v, present %v)", d, v, ok)
		}
	}
}

// TestCMPFourCorePerCoreMetrics checks the 4-core producer-consumer run
// publishes per-core counter sets and that the plain aggregate names equal
// the per-core sums.
func TestCMPFourCorePerCoreMetrics(t *testing.T) {
	opt := cmpOptions()
	opt.Cores = 4
	opt.Sharing = SharingSpec{Pattern: "producer-consumer", SharedFrac: 0.2}
	var snap MetricsSnapshot
	opt.OnMetrics = func(ev MetricsEvent) { snap = ev.Snapshot }
	res, err := RunSpec(Designs()[0], workload.Specs()[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 4*opt.RunInstructions {
		t.Fatalf("%d instructions, want %d", res.Instructions, 4*opt.RunInstructions)
	}
	for _, base := range []string{"cpu.l1d.hits", "workload.mem_ops", "workload.shared_refs"} {
		var sum float64
		for i := 0; i < 4; i++ {
			name := "core." + string(rune('0'+i)) + "." + base
			v, ok := snap.Value(name)
			if !ok {
				t.Fatalf("per-core metric %s missing", name)
			}
			sum += v
		}
		agg, ok := snap.Value(base)
		if !ok || agg != sum {
			t.Fatalf("aggregate %s = %v (present %v), per-core sum %v", base, agg, ok, sum)
		}
	}
	// Producer-consumer on 4 cores must invalidate consumer copies and
	// downgrade producer lines as consumers read them back.
	for _, name := range []string{"coh.invalidations", "coh.writebacks"} {
		if v, _ := snap.Value(name); v == 0 {
			t.Fatalf("%s = 0 under producer-consumer sharing", name)
		}
	}

	// Determinism: the identical options replay to the identical snapshot.
	var snap2 MetricsSnapshot
	opt.OnMetrics = func(ev MetricsEvent) { snap2 = ev.Snapshot }
	res2, err := RunSpec(Designs()[0], workload.Specs()[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res || !reflect.DeepEqual(snap2, snap) {
		t.Fatal("4-core replay diverged")
	}
}

// TestCMPOptionsValidation pins the one-line errors the CLIs surface.
func TestCMPOptionsValidation(t *testing.T) {
	spec := workload.Specs()[0]
	d := Designs()[0]
	cases := []struct {
		opt  Options
		frag string
	}{
		{Options{Cores: -1}, "at least 1"},
		{Options{Cores: 65}, "64-core"},
		{Options{Cores: 2, Sharing: SharingSpec{Pattern: "gossip"}}, "unknown sharing pattern"},
		{Options{Sharing: SharingSpec{SharedFrac: 2}}, "outside [0,1]"},
	}
	for _, c := range cases {
		if _, err := RunSpec(d, spec, c.opt); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("RunSpec(%+v) error = %v, want mention of %q", c.opt, err, c.frag)
		}
		if _, err := RunSpecSampled(d, spec, Options{SampleIntervals: 2, SampleLength: 1000, Cores: c.opt.Cores, Sharing: c.opt.Sharing}); err == nil {
			t.Errorf("RunSpecSampled(%+v) accepted invalid CMP options", c.opt)
		}
	}
}

// TestCMPSampled checks the CMP arm composes with sampled execution: the
// machine fast-forwards functionally between detailed intervals and the
// totals scale by core count.
func TestCMPSampled(t *testing.T) {
	opt := Options{
		WarmInstructions: 200_000,
		RunInstructions:  200_000,
		Seed:             7,
		Cores:            2,
		Sharing:          SharingSpec{Pattern: "read-mostly"},
		SampleIntervals:  4,
		SampleLength:     20_000,
	}
	res, err := RunSpecSampled(Designs()[0], workload.Specs()[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != 4 {
		t.Fatalf("%d intervals, want 4", res.Intervals)
	}
	if want := uint64(4 * 20_000 * 2); res.DetailedInstructions != want {
		t.Fatalf("%d detailed instructions, want %d", res.DetailedInstructions, want)
	}
	if res.Instructions != 2*opt.RunInstructions || res.Cycles == 0 || res.IPC <= 0 {
		t.Fatalf("sampled CMP totals wrong: %+v", res.Result)
	}
	res2, err := RunSpecSampled(Designs()[0], workload.Specs()[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2, res) {
		t.Fatal("sampled CMP replay diverged")
	}
}

// TestCMPCheckpointRoundTrip is the CMP warm-state satellite: a 2-core
// machine's checkpoint (cores, streams, L2, coherence directory) restores
// bit-identically, a corrupted disk file degrades to a miss that re-warms
// to the same numbers, and provenance gates both restore directions.
func TestCMPCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := cmpOptions()
	opt.WarmInstructions = 500_000
	opt.Cores = 2
	opt.Sharing = SharingSpec{Pattern: "producer-consumer"}
	d := Designs()[0]
	spec := workload.Specs()[1]

	run := func(store *snapshot.Store) (Result, MetricsSnapshot) {
		o := opt
		o.Checkpoints = store
		var snap MetricsSnapshot
		o.OnMetrics = func(ev MetricsEvent) { snap = ev.Snapshot }
		res, err := RunSpec(d, spec, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, snap
	}

	store := snapshot.NewStore(4, dir)
	want, wantSnap := run(store)
	if st := store.Stats(); st.Puts != 1 || st.Misses != 1 {
		t.Fatalf("first run store stats %+v, want 1 put / 1 miss", st)
	}
	got, gotSnap := run(store)
	if st := store.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("second run store stats %+v, want a restoring hit (no second put)", st)
	}
	if got != want || !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatal("checkpoint-restored CMP run is not bit-identical")
	}

	// A fresh store over the same directory reads the disk tier.
	got, gotSnap = run(snapshot.NewStore(4, dir))
	if got != want || !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatal("disk-restored CMP run is not bit-identical")
	}

	// Corrupt the stored file: the next run must degrade to a miss,
	// re-warm, and still land on the same numbers.
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files on disk: %v (%v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, gotSnap = run(snapshot.NewStore(4, dir))
	if got != want || !reflect.DeepEqual(gotSnap, wantSnap) {
		t.Fatal("re-warmed run after corruption is not bit-identical")
	}
}

// TestCMPCheckpointProvenance pins the restore gate: a checkpoint restores
// only into a machine of its own width. A 1-core checkpoint never restores
// into a CMP machine, and a CMP checkpoint never into a 1-core machine or
// one of another width.
func TestCMPCheckpointProvenance(t *testing.T) {
	spec := workload.Specs()[1]
	rigOf := func(cores int) *rig {
		o := withSharing(withCores(cmpOptions(), cores), SharingSpec{Pattern: "producer-consumer"})
		return newRig(Designs()[0], spec, o.Seed, o)
	}
	ckpOf := func(cores int) snapshot.Checkpoint {
		r := rigOf(cores)
		return r.checkpoint(r.inst.(l2.Snapshotter))
	}
	for _, n := range []int{1, 2} {
		if err := rigOf(n).restore(ckpOf(n)); err != nil {
			t.Errorf("%d-core checkpoint rejected by a %d-core machine: %v", n, n, err)
		}
	}
	for _, c := range []struct{ from, into int }{{1, 2}, {2, 1}, {2, 4}, {4, 2}} {
		if err := rigOf(c.into).restore(ckpOf(c.from)); err == nil {
			t.Errorf("%d-core checkpoint restored into a %d-core machine", c.from, c.into)
		}
	}
}

// TestCMPKeySeparation: the CMP axis must separate content and checkpoint
// keys — core counts and sharing specs land on distinct keys, while
// Cores 0 and 1 (both "one core") share one.
func TestCMPKeySeparation(t *testing.T) {
	base := cmpOptions()
	if a, b := base.ContentKey(), withCores(base, 1).ContentKey(); a != b {
		t.Fatal("Cores 0 and Cores 1 key apart — they are the same machine")
	}
	seen := map[string]string{base.ContentKey(): "single-core"}
	variants := map[string]Options{
		"2 cores":           withCores(base, 2),
		"4 cores":           withCores(base, 4),
		"2 cores migratory": withSharing(withCores(base, 2), SharingSpec{Pattern: "migratory"}),
		"2 cores mig 2MB":   withSharing(withCores(base, 2), SharingSpec{Pattern: "migratory", SharedMB: 2}),
	}
	for label, o := range variants {
		k := o.ContentKey()
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s and %s share a content key", label, prev)
		}
		seen[k] = label
	}
}

func withCores(o Options, n int) Options { o.Cores = n; return o }

func withSharing(o Options, s SharingSpec) Options { o.Sharing = s; return o }
