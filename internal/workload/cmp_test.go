package workload

import (
	"reflect"
	"testing"

	"tlc/internal/cpu"
	"tlc/internal/mem"
)

// TestSharingSpecValidate pins the validation errors the CLIs surface.
func TestSharingSpecValidate(t *testing.T) {
	cases := []struct {
		spec SharingSpec
		ok   bool
	}{
		{SharingSpec{}, true},
		{SharingSpec{Pattern: "private"}, true},
		{SharingSpec{Pattern: "producer-consumer", SharedMB: 2, SharedFrac: 0.3}, true},
		{SharingSpec{Pattern: "migratory"}, true},
		{SharingSpec{Pattern: "read-mostly"}, true},
		{SharingSpec{Pattern: "false-sharing"}, false},
		{SharingSpec{Pattern: "migratory", SharedMB: -1}, false},
		{SharingSpec{Pattern: "migratory", SharedFrac: 1.5}, false},
		{SharingSpec{Pattern: "migratory", SharedFrac: -0.1}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
	for _, p := range SharingPatterns() {
		if err := (SharingSpec{Pattern: p}).Validate(); err != nil {
			t.Errorf("listed pattern %q fails validation: %v", p, err)
		}
	}
}

// TestSharingSpecNormalize pins the default resolution that makes
// equal-behaviour specs hash equally in configuration keys.
func TestSharingSpecNormalize(t *testing.T) {
	if got := (SharingSpec{}).Normalize(); got != (SharingSpec{Pattern: "private"}) {
		t.Fatalf("zero spec normalized to %+v", got)
	}
	if got := (SharingSpec{Pattern: "private", SharedMB: 4, SharedFrac: 0.5}).Normalize(); got != (SharingSpec{Pattern: "private"}) {
		t.Fatalf("private kept unused knobs: %+v", got)
	}
	want := SharingSpec{Pattern: "migratory", SharedMB: 1, SharedFrac: 0.1}
	if got := (SharingSpec{Pattern: "migratory"}).Normalize(); got != want {
		t.Fatalf("migratory defaults = %+v, want %+v", got, want)
	}
}

// TestCMPSeedCoreZero: core 0 runs under the run seed itself — the anchor
// of the N=1 bit-identity guarantee.
func TestCMPSeedCoreZero(t *testing.T) {
	for _, s := range []int64{0, 1, 42, -7} {
		if CMPSeed(s, 0) != s {
			t.Fatalf("CMPSeed(%d, 0) = %d", s, CMPSeed(s, 0))
		}
	}
	if CMPSeed(1, 1) == CMPSeed(1, 2) {
		t.Fatal("core seeds collide")
	}
}

// TestCMPStreamCore0PrivateMatchesGenerator pins the bit-identity anchor:
// core 0 under the private pattern emits exactly the single-core
// Generator's stream (tag 0, no redirects).
func TestCMPStreamCore0PrivateMatchesGenerator(t *testing.T) {
	spec, _ := SpecByName("gcc")
	cs := NewCMPStream(spec, 42, 0, SharingSpec{})
	g := New(spec, 42)
	for i := 0; i < 200_000; i++ {
		if got, want := cs.Next(), g.Next(); got != want {
			t.Fatalf("instr %d: CMP core 0 %+v != generator %+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(cs.g.State(), g.State()) {
		t.Fatal("stream states diverged")
	}
}

// drainMems collects total instructions' worth of memory operations from a
// CMPStream via the given delivery mode.
func drainMems(t *testing.T, cs *CMPStream, mode string, total uint64) []cpu.MemRef {
	t.Helper()
	var out []cpu.MemRef
	switch mode {
	case "scalar":
		for i := uint64(0); i < total; i++ {
			in := cs.Next()
			if in.IsMem {
				out = append(out, cpu.MemRef{Block: in.Block, Store: in.IsStore})
			}
		}
	case "batch":
		buf := make([]cpu.Instr, 173) // deliberately unaligned batch size
		var done uint64
		for done < total {
			want := total - done
			if want > uint64(len(buf)) {
				want = uint64(len(buf))
			}
			n := cs.NextBatch(buf[:want])
			for _, in := range buf[:n] {
				if in.IsMem {
					out = append(out, cpu.MemRef{Block: in.Block, Store: in.IsStore})
				}
			}
			done += uint64(n)
		}
	case "mems":
		buf := make([]cpu.MemRef, 211)
		var done uint64
		for done < total {
			n, consumed := cs.NextMems(buf, total-done)
			out = append(out, buf[:n]...)
			done += consumed
			if consumed == 0 {
				t.Fatal("NextMems made no progress")
			}
		}
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	return out
}

// TestCMPStreamDeliveryEquivalence pins the delivery protocol for every
// sharing pattern: scalar, batched, and warm-mode mem delivery produce the
// identical memory-reference sequence and identical final stream state —
// the property that keeps batched warm-up and checkpoints interchangeable
// with scalar execution in CMP runs.
func TestCMPStreamDeliveryEquivalence(t *testing.T) {
	spec, _ := SpecByName("gcc")
	const total = 120_000
	for _, p := range SharingPatterns() {
		sh := SharingSpec{Pattern: p, SharedMB: 0.5, SharedFrac: 0.2}
		for _, core := range []int{0, 1, 3} {
			ref := drainMems(t, NewCMPStream(spec, 9, core, sh), "scalar", total)
			for _, mode := range []string{"batch", "mems"} {
				cs := NewCMPStream(spec, 9, core, sh)
				got := drainMems(t, cs, mode, total)
				if len(got) != len(ref) {
					t.Fatalf("%s/%s core %d: %d mem ops, scalar %d", p, mode, core, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%s/%s core %d: mem op %d = %+v, scalar %+v", p, mode, core, i, got[i], ref[i])
					}
				}
				want := NewCMPStream(spec, 9, core, sh)
				drainMems(t, want, "scalar", total)
				if !reflect.DeepEqual(cs.State(), want.State()) {
					t.Fatalf("%s/%s core %d: final state diverged from scalar", p, mode, core)
				}
			}
		}
	}
}

// TestCMPStreamStateRoundTrip pins checkpoint resume: a stream restored
// mid-run continues bit-identically to one that never stopped.
func TestCMPStreamStateRoundTrip(t *testing.T) {
	spec, _ := SpecByName("mcf")
	for _, p := range SharingPatterns() {
		sh := SharingSpec{Pattern: p}
		ref := NewCMPStream(spec, 5, 2, sh)
		drainMems(t, ref, "scalar", 50_000)
		st := ref.State()
		want := drainMems(t, ref, "scalar", 50_000)

		resumed := NewCMPStream(spec, 5, 2, sh)
		resumed.SetState(st)
		got := drainMems(t, resumed, "scalar", 50_000)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resumed continuation diverged", p)
		}
		if !reflect.DeepEqual(resumed.State(), ref.State()) {
			t.Fatalf("%s: final states differ after resume", p)
		}
	}
}

// TestCMPStreamStriping checks the address-space isolation contract: a
// core's private references carry its stripe tag, shared-region references
// carry the shared tag, and the two can never alias.
func TestCMPStreamStriping(t *testing.T) {
	spec, _ := SpecByName("gcc")
	sh := SharingSpec{Pattern: "read-mostly", SharedFrac: 0.3}
	const core = 3
	cs := NewCMPStream(spec, 11, core, sh)
	tag := CoreTag(core)
	var private, shared int
	for _, r := range drainMems(t, cs, "scalar", 100_000) {
		switch {
		case r.Block&sharedRegionTag != 0:
			shared++
			if r.Block&tag != 0 {
				t.Fatalf("shared block %#x carries a private stripe tag", r.Block)
			}
		case r.Block&^((mem.Block(1)<<44)-1) == tag:
			private++
		default:
			t.Fatalf("block %#x in neither core %d's stripe nor the shared region", r.Block, core)
		}
	}
	if private == 0 || shared == 0 {
		t.Fatalf("expected both private and shared traffic, got %d/%d", private, shared)
	}
	if got := float64(shared) / float64(private+shared); got < 0.2 || got > 0.4 {
		t.Fatalf("shared fraction %.3f far from configured 0.3", got)
	}
}

// TestCMPStreamProducerConsumerRoles: producers (even cores) store to the
// shared region, consumers (odd cores) only load from it.
func TestCMPStreamProducerConsumerRoles(t *testing.T) {
	spec, _ := SpecByName("gcc")
	sh := SharingSpec{Pattern: "producer-consumer", SharedFrac: 0.2}
	for core := 0; core < 2; core++ {
		cs := NewCMPStream(spec, 3, core, sh)
		var sharedStores, sharedLoads int
		for _, r := range drainMems(t, cs, "scalar", 100_000) {
			if r.Block&sharedRegionTag == 0 {
				continue
			}
			if r.Store {
				sharedStores++
			} else {
				sharedLoads++
			}
		}
		if core%2 == 0 && (sharedStores == 0 || sharedLoads != 0) {
			t.Fatalf("producer core %d: %d shared stores, %d shared loads", core, sharedStores, sharedLoads)
		}
		if core%2 == 1 && (sharedLoads == 0 || sharedStores != 0) {
			t.Fatalf("consumer core %d: %d shared stores, %d shared loads", core, sharedStores, sharedLoads)
		}
	}
}
