package api

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strings"
	"testing"

	"tlc"
)

func TestRunOptionsDefaults(t *testing.T) {
	opt := RunOptions{}.Options()
	def := tlc.DefaultOptions()
	if opt.RunInstructions != def.RunInstructions || opt.Seed != def.Seed {
		t.Fatalf("zero RunOptions expanded to %+v, want the tlc defaults %+v", opt, def)
	}
	// A round trip through the wire shape preserves every content field:
	// the expanded options must hash to the same content key.
	set := tlc.Options{
		WarmInstructions: 123, RunInstructions: 456, Seed: 7, WarmSeed: 9,
		UseDRAM: true, BitErrorRate: 1e-9, SampleIntervals: 3, SampleLength: 11,
	}
	if got := FromOptions(set).Options().ContentKey(); got != set.ContentKey() {
		t.Fatal("RunOptions round trip changed the options content key")
	}
}

func TestRunRequestKey(t *testing.T) {
	base := RunRequest{Design: "TLC", Benchmark: "gcc"}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := base.Key()
	if k1 != k2 {
		t.Fatal("Key is not deterministic")
	}
	for _, req := range []RunRequest{
		{Design: "DNUCA", Benchmark: "gcc"},
		{Design: "TLC", Benchmark: "mcf"},
		{Design: "TLC", Benchmark: "gcc", Options: RunOptions{Seed: 2}},
		{Design: "TLC", Benchmark: "gcc", Options: RunOptions{UseDRAM: true}},
		{Design: "TLC", Benchmark: "gcc", Options: RunOptions{RunInstructions: 100}},
	} {
		k, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Fatalf("distinct config %+v aliases the base key", req)
		}
	}
	if _, err := (RunRequest{Design: "NOPE", Benchmark: "gcc"}).Key(); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := (RunRequest{Design: "TLC", Benchmark: "nope"}).Key(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestParseDesignRoundTrip(t *testing.T) {
	for _, d := range tlc.Designs() {
		got, err := ParseDesign(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDesign(%q) = %v, %v", d.String(), got, err)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	res := tlc.Result{
		Design: tlc.DesignTLC, Benchmark: "gcc",
		Instructions: 1000, Cycles: 2000, IPC: 0.5,
		L2Loads: 30, L2Stores: 10, MissesPer1K: 1.5, MeanLookup: 12.25,
		PredictablePct: 80, BanksPerRequest: 1.25, LinkUtilization: 0.05,
		NetworkPowerW: 0.004, CloseHitPct: 0, PromotesPerInsert: 0,
	}
	rec := RecordFrom(res, nil, nil, 3.5)
	rec.Result = &res

	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back RunRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.ToResult()
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatalf("wire round trip changed the result:\n got %+v\nwant %+v", got, res)
	}

	// Without the embedded Result (a CLI artifact), the projection keeps
	// the headline fields.
	back.Result = nil
	partial, err := back.ToResult()
	if err != nil {
		t.Fatal(err)
	}
	if partial.Cycles != res.Cycles || partial.MeanLookup != res.MeanLookup || partial.Design != res.Design {
		t.Fatalf("headline projection diverged: %+v", partial)
	}
}

// FuzzRunRequest drives arbitrary bytes through the service's request
// path: Decode, then RunRequest.Validate. Nothing may panic, and a body
// both accept must name a runnable configuration — it keys, and its
// expanded options pass tlc.Options.Validate, so the worker never sees a
// request admission should have refused; a uniform plan it admits times
// no more instructions than the run holds. The seeds are the request
// bodies scripts/service_e2e.sh posts and two plans whose detailed
// instruction count overflows 64 bits.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"design":"TLC","benchmark":"perl","options":{"warm_instructions":2000000,"run_instructions":200000}}`,
		`{"design":"DNUCA","benchmark":"oltp","options":{"run_instructions":2000000}}`,
		`{"design":"TLC","benchmark":"perl","options":{"warm_instructions":2000000,"run_instructions":200000,"fidelity":"fast"}}`,
		`{"design":"TLC","benchmark":"gcc","options":{"sample_intervals":2,"sample_length":9223372036854775808}}`,
		`{"design":"TLC","benchmark":"gcc","options":{"sample_intervals":4294967296,"sample_length":4294967296}}`,
		`{"design":"TLC","benchmark":"gcc","options":{"phase_windows":2000000,"phase_clusters":2000000}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if Decode(bytes.NewReader(body), &req) != nil {
			return
		}
		if _, err := req.Validate(); err != nil {
			return
		}
		if _, err := req.Key(); err != nil {
			t.Fatalf("validated request does not key: %v", err)
		}
		opt := req.Options.Options()
		if err := opt.Validate(); err != nil {
			t.Fatalf("validated request carries invalid options: %v", err)
		}
		if opt.SampleIntervals > 0 {
			hi, detailed := bits.Mul64(uint64(opt.SampleIntervals), opt.SampleLength)
			if hi != 0 || detailed > opt.RunInstructions {
				t.Fatalf("admitted %d intervals × %d instructions against a %d-instruction run",
					opt.SampleIntervals, opt.SampleLength, opt.RunInstructions)
			}
		}
		if opt.PhaseWindows > 1<<16 || uint64(opt.PhaseWindows)*uint64(opt.PhaseClusters) > 1<<20 {
			t.Fatalf("admitted a %d-window × %d-cluster phase shape", opt.PhaseWindows, opt.PhaseClusters)
		}
	})
}

// TestDecodeRejectsUnknownFieldsAndTrailingData pins the request-decoding
// policy every service endpoint shares.
func TestDecodeRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"design":"TLC","benchmark":"gcc","options":{"fidelity":"fast"}}`,
		`{"design":"TLC","benchmark":"gcc","extra":true}`,
		`{"design":"TLC","benchmark":"gcc"} {"design":"DNUCA"}`,
		`{"design":"TLC","benchmark":"gcc"} x`,
		``,
	} {
		var req RunRequest
		if err := Decode(strings.NewReader(body), &req); err == nil {
			t.Errorf("Decode(%q) accepted", body)
		}
	}
	var req RunRequest
	if err := Decode(strings.NewReader("{\"design\":\"TLC\",\"benchmark\":\"gcc\"}\n"), &req); err != nil {
		t.Fatalf("well-formed body rejected: %v", err)
	}
	if req.Design != "TLC" || req.Benchmark != "gcc" {
		t.Fatalf("decoded %+v", req)
	}
}
