package tlc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"tlc/internal/sample"
	"tlc/internal/snapshot"
	"tlc/internal/workload"
)

// The on-disk warm checkpoints and phase profiles are versioned by hand:
// checkpointFormat and sample.ProfileFormat must be bumped whenever the
// state they capture changes shape or meaning, or a stale -ckptdir (or a
// tlcd checkpoint directory) restores the wrong state as a valid hit. The
// pins below tie a digest of one small canonical artifact of each kind to
// the constant's current value, so a change to the captured state that
// forgets the bump fails here, naming the constant. After a deliberate
// bump, re-pin with the digests the failing test reports.

// pinnedCheckpointFormat is the checkpointFormat the checkpoint digests
// were taken under.
const pinnedCheckpointFormat = 5

// checkpointDigests pins each design's canonical warm checkpoint (gcc,
// 100 K warm-up instructions on one core), plus one 2-core
// producer-consumer TLC machine whose checkpoint carries a coherence
// directory.
var checkpointDigests = map[string]string{
	"SNUCA2":     "8e34d2065688dbc7",
	"DNUCA":      "632d699d8b2ca0a3",
	"TLC":        "da4b83b143b958c1",
	"TLCopt1000": "76fb86b6900ad2c5",
	"TLCopt500":  "ba417924170009e1",
	"TLCopt350":  "cff5509e40cd2982",
	"TLC/2-core": "7486e46e3206dd51",
}

// pinnedProfileFormat is the sample.ProfileFormat profileDigest was taken
// under.
const pinnedProfileFormat = 1

// profileDigest pins the canonical phase profile: gcc, 200 K timed
// instructions in 20 windows and 4 clusters.
const profileDigest = "282c608ca829b430"

// canonicalDigest hashes v's concrete type and JSON form. Gob, the on-disk
// encoding, is not usable here: its bytes depend on the order in which
// types first reach an encoder in the process. JSON of the same value is
// the same bytes in every process, and it covers every exported field gob
// writes, under the same names.
func canonicalDigest(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%T\n", v)
	if err := json.NewEncoder(h).Encode(v); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// canonicalCheckpoint warms one small machine through the run pipeline
// and returns the checkpoint it stored.
func canonicalCheckpoint(t *testing.T, d Design, cores int) snapshot.Checkpoint {
	t.Helper()
	spec, _ := workload.SpecByName("gcc")
	opt := Options{WarmInstructions: 100_000, RunInstructions: 1, Seed: 1, Cores: cores,
		Checkpoints: NewCheckpointStore(0, "")}
	if cores > 1 {
		opt.Sharing = SharingSpec{Pattern: "producer-consumer"}
	}
	if _, err := prepare(d, spec, opt); err != nil {
		t.Fatal(err)
	}
	warmSeed, warm := warmPlan(spec, opt)
	key := snapshot.Key{Config: configHash(d, spec, opt.cmpConfig()), Bench: spec.Name, Seed: warmSeed, Warm: warm}
	ckp, ok := opt.Checkpoints.Get(key)
	if !ok {
		t.Fatalf("%v: the warm-up stored no checkpoint", d)
	}
	return ckp
}

func TestCheckpointFormatPinned(t *testing.T) {
	var names []string
	got := map[string]string{}
	pin := func(name string, d Design, cores int) {
		ckp := canonicalCheckpoint(t, d, cores)
		names = append(names, name)
		got[name] = canonicalDigest(t, struct {
			L2Type string
			Ckp    snapshot.Checkpoint
		}{fmt.Sprintf("%T", ckp.L2), ckp})
	}
	for _, d := range Designs() {
		pin(d.String(), d, 1)
	}
	pin("TLC/2-core", DesignTLC, 2)

	if checkpointFormat != pinnedCheckpointFormat {
		t.Fatalf("checkpointFormat is %d but the checkpoint digests were pinned under %d: "+
			"set pinnedCheckpointFormat = %d and re-pin checkpointDigests to %v",
			checkpointFormat, pinnedCheckpointFormat, checkpointFormat, got)
	}
	if len(checkpointDigests) != len(names) {
		t.Errorf("%d checkpoint digests pinned for %d canonical checkpoints", len(checkpointDigests), len(names))
	}
	for _, name := range names {
		if want := checkpointDigests[name]; got[name] != want {
			t.Errorf("%s: canonical warm checkpoint digest %s, pinned %q under checkpointFormat %d: "+
				"the captured warm state changed, so bump checkpointFormat (tlc.go) and re-pin",
				name, got[name], want, pinnedCheckpointFormat)
		}
	}
}

func TestProfileFormatPinned(t *testing.T) {
	opt := Options{WarmInstructions: 100_000, RunInstructions: 200_000, Seed: 1,
		PhaseWindows: 20, PhaseClusters: 4, PhaseProfiles: NewPhaseProfileStore(0, "")}
	if _, err := RunSampled(DesignTLC, "gcc", opt); err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.SpecByName("gcc")
	prof, ok := opt.PhaseProfiles.Get(phaseProfileKey(spec, opt))
	if !ok {
		t.Fatal("the phased run stored no profile")
	}
	got := canonicalDigest(t, prof)

	if sample.ProfileFormat != pinnedProfileFormat {
		t.Fatalf("sample.ProfileFormat is %d but the profile digest was pinned under %d: "+
			"set pinnedProfileFormat = %d and re-pin profileDigest to %s",
			sample.ProfileFormat, pinnedProfileFormat, sample.ProfileFormat, got)
	}
	if got != profileDigest {
		t.Errorf("canonical phase profile digest %s, pinned %s under sample.ProfileFormat %d: "+
			"the profile's features, clustering or selection changed, so bump "+
			"sample.ProfileFormat (internal/sample/phase.go) and re-pin",
			got, profileDigest, pinnedProfileFormat)
	}
}
