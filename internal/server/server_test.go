package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/experiments"
)

// tinyOptions keeps real simulations fast where a test needs one.
func tinyOptions() tlc.Options {
	opt := tlc.DefaultOptions()
	opt.WarmInstructions = 10_000
	opt.RunInstructions = 5_000
	return opt
}

// newTestServer builds a server (stubbed when execute != nil) and its
// httptest front end, torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		if !s.Draining() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}
	})
	return s, hs
}

func postRun(t *testing.T, url string, req api.RunRequest, query string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeRecord(t *testing.T, data []byte) api.RunRecord {
	t.Helper()
	var rec api.RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("decoding record: %v\n%s", err, data)
	}
	return rec
}

// counter reads one named counter from the server's registry.
func counter(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	for _, m := range s.Metrics().Snapshot(0) {
		if m.Name == name {
			return m.Count
		}
	}
	t.Fatalf("no counter %s", name)
	return 0
}

// stubRecord is what the stub executor returns for (d, bench).
// recordID is the ID the server gives req's record: the run's content
// address, tlc.RunKey.
func recordID(t *testing.T, req api.RunRequest) string {
	t.Helper()
	d, err := req.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return tlc.RunKey(d, req.Benchmark, req.Options.Options())
}

func stubRecord(d tlc.Design, bench string) api.RunRecord {
	return api.RunRecord{Design: d.String(), Benchmark: bench, Cycles: 42}
}

// stubResult is the full Result a stub executor embeds for (d, bench).
func stubResult(d tlc.Design, bench string) tlc.Result {
	return tlc.Result{Design: d, Benchmark: bench, Instructions: 1000, Cycles: 42}
}

// TestBackpressure429 saturates a one-worker, depth-one queue and asserts
// the overflow request is rejected with 429 + Retry-After instead of
// queueing unboundedly.
func TestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return stubRecord(d, bench), nil
		},
	})

	// Occupy the worker, then the queue slot, with distinct configs.
	var wg sync.WaitGroup
	occupy := func(bench string) {
		defer wg.Done()
		resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: bench}, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("occupying run %s: status %d", bench, resp.StatusCode)
		}
	}
	wg.Add(1)
	go occupy("gcc")
	<-started // the worker holds gcc
	wg.Add(1)
	go occupy("mcf") // fills the queue slot

	// Wait for the queue to actually hold mcf, then overflow with a third
	// distinct config.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "perl"}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429 (%s)", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
	var apiErr api.Error
	if err := json.Unmarshal(data, &apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("429 body is not an api.Error: %s", data)
	}
	if got := counter(t, s, "server.runs.rejected"); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(release) // finish gcc and mcf; later executions return immediately
	wg.Wait()
	// The rejected key must not linger as a dead flight: retrying succeeds.
	resp, data = postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "perl"}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after 429: status %d (%s)", resp.StatusCode, data)
	}
}

// TestDeadlineCancelsRun: a request whose deadline expires gets 504 and its
// abandoned run's context is cancelled, so the execution stops cooperatively.
func TestDeadlineCancelsRun(t *testing.T) {
	cancelled := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			<-ctx.Done() // simulate a long run that polls cancellation
			close(cancelled)
			return api.RunRecord{}, ctx.Err()
		},
	})

	resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "?timeout_ms=50")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request: status %d, want 504 (%s)", resp.StatusCode, data)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned run's context was never cancelled")
	}
	if got := counter(t, s, "server.runs.deadline_exceeded"); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
	// The cancelled run must not be cached as a result.
	if n := s.cache.Stats().Puts; n != 0 {
		t.Errorf("cancelled run landed in the result cache (%d records stored)", n)
	}
}

// TestCoalescing: concurrent identical requests execute exactly once; the
// extras are marked coalesced. A follow-up request hits the result cache
// with zero further executions.
func TestCoalescing(t *testing.T) {
	var executions atomic.Uint64
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, hs := newTestServer(t, Config{
		Workers: 4,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			once.Do(func() { close(started) })
			<-release
			return stubRecord(d, bench), nil
		},
	})

	req := api.RunRequest{Design: "TLC", Benchmark: "gcc"}
	const callers = 6
	var wg sync.WaitGroup
	var coalesced atomic.Uint64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postRun(t, hs.URL, req, "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d (%s)", resp.StatusCode, data)
				return
			}
			if decodeRecord(t, data).Coalesced {
				coalesced.Add(1)
			}
		}()
		if i == 0 {
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatal("first request never started executing")
			}
		}
	}
	// All joiners are waiting on the one flight; release it.
	for counter(t, s, "server.runs.coalesced") < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent identical requests, want 1", got, callers)
	}
	if got := coalesced.Load(); got != callers-1 {
		t.Errorf("%d responses marked coalesced, want %d", got, callers-1)
	}

	// Identical follow-up: served from cache, no new execution.
	resp, data := postRun(t, hs.URL, req, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request: status %d", resp.StatusCode)
	}
	rec := decodeRecord(t, data)
	if !rec.Cached {
		t.Error("follow-up request not marked cached")
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("cache hit triggered execution %d", got)
	}
	if got := counter(t, s, "server.runs.cache_hits"); got != 1 {
		t.Errorf("cache_hits counter = %d, want 1", got)
	}

	// GET by content address finds the same record.
	id := recordID(t, req)
	if rec.ID != id {
		t.Errorf("record ID %q != content address %q", rec.ID, id)
	}
	gresp, err := http.Get(hs.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Errorf("GET by id: status %d", gresp.StatusCode)
	}
	if gresp2, err := http.Get(hs.URL + "/v1/runs/no-such-id"); err == nil {
		gresp2.Body.Close()
		if gresp2.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown id: status %d, want 404", gresp2.StatusCode)
		}
	}
}

// TestServedMatchesInProcess is the byte-identity contract: a run served
// over HTTP reconstructs exactly the tlc.Result an in-process run returns,
// in full detail and under both sampling plans, with the same confidence
// intervals and the same registry snapshot.
func TestServedMatchesInProcess(t *testing.T) {
	opt := tinyOptions()
	_, hs := newTestServer(t, Config{Workers: 2, BaseOptions: opt})

	uniform := opt
	uniform.SampleIntervals, uniform.SampleLength = 5, 200
	phase := opt
	phase.PhaseWindows, phase.PhaseClusters = 8, 3
	for name, o := range map[string]tlc.Options{"full": opt, "uniform": uniform, "phase": phase} {
		req := api.RunRequest{Design: "TLC", Benchmark: "perl", Options: api.FromOptions(o)}
		resp, data := postRun(t, hs.URL, req, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", name, resp.StatusCode, data)
		}
		rec := decodeRecord(t, data)
		served, err := rec.ToResult()
		if err != nil {
			t.Fatal(err)
		}

		var snap tlc.MetricsSnapshot
		o.OnMetrics = func(ev tlc.MetricsEvent) { snap = ev.Snapshot }
		var local tlc.SampledResult
		if o.Sampled() {
			local, err = tlc.RunSampled(tlc.DesignTLC, "perl", o)
		} else {
			local.Result, err = tlc.Run(tlc.DesignTLC, "perl", o)
		}
		if err != nil {
			t.Fatal(err)
		}
		if served != local.Result {
			t.Errorf("%s: served result diverged from in-process run:\nserved %+v\nlocal  %+v", name, served, local.Result)
		}
		if rec.CyclesCI != local.CyclesCI || rec.MeanLookupCI != local.MeanLookupCI || rec.MissesPer1KCI != local.MissesPer1KCI {
			t.Errorf("%s: served CIs (%g, %g, %g), in-process (%g, %g, %g)", name,
				rec.CyclesCI, rec.MeanLookupCI, rec.MissesPer1KCI,
				local.CyclesCI, local.MeanLookupCI, local.MissesPer1KCI)
		}
		if o.Sampled() && local.CyclesCI == 0 {
			t.Errorf("%s: sampled run reports no cycles CI", name)
		}
		servedSnap, _ := json.Marshal(rec.Metrics)
		localSnap, _ := json.Marshal(snap)
		if len(snap) == 0 || !bytes.Equal(servedSnap, localSnap) {
			t.Errorf("%s: served registry snapshot diverged from in-process run", name)
		}
	}
}

// TestDeadlineCancelsRealRun drives the production executor: a run far too
// long to finish answers 504 at its deadline, and the cancellation reaches
// the simulation, so the one worker is free for the tiny request that
// follows. Only the finished run is cached.
func TestDeadlineCancelsRealRun(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})

	long := tinyOptions()
	long.RunInstructions = 2_000_000_000
	req := api.RunRequest{Design: "TLC", Benchmark: "gcc", Options: api.FromOptions(long)}
	resp, data := postRun(t, hs.URL, req, "?timeout_ms=100")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("2 G-instruction run: status %d, want 504 (%s)", resp.StatusCode, data)
	}

	tiny := api.RunRequest{Design: "TLC", Benchmark: "gcc", Options: api.FromOptions(tinyOptions())}
	resp, data = postRun(t, hs.URL, tiny, "?timeout_ms=30000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tiny run after the cancelled one: status %d (%s)", resp.StatusCode, data)
	}
	_, ok := s.cache.Get(recordID(t, tiny))
	if n := s.cache.Stats().Puts; n != 1 || !ok {
		t.Errorf("result cache stored %d records (tiny run cached: %v), want only the tiny run", n, ok)
	}
	if got := counter(t, s, "server.runs.executed"); got != 1 {
		t.Errorf("executed counter = %d, want 1", got)
	}
}

// TestRunErrorNotCached: a failing run answers 500 and is re-attempted on
// retry rather than served from the cache.
func TestRunErrorNotCached(t *testing.T) {
	var executions atomic.Uint64
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			return api.RunRecord{}, fmt.Errorf("boom %d", executions.Load())
		},
	})
	for i := 1; i <= 2; i++ {
		resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("attempt %d: status %d (%s)", i, resp.StatusCode, data)
		}
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("%d executions, want 2 (errors are not cached)", got)
	}
	if got := counter(t, s, "server.runs.failed"); got != 2 {
		t.Errorf("failed counter = %d, want 2", got)
	}
}

// TestValidation: malformed bodies and unknown names are 400s.
func TestValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			return stubRecord(d, bench), nil
		},
	})
	for name, body := range map[string]string{
		"not json":          "{nope",
		"unknown design":    `{"design":"NOPE","benchmark":"gcc"}`,
		"unknown benchmark": `{"design":"TLC","benchmark":"nope"}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/runs?timeout_ms=-5", "application/json",
		strings.NewReader(`{"design":"TLC","benchmark":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout: status %d, want 400", resp.StatusCode)
	}
}

// TestSamplingPlanMustFitRun: a sampling plan that cannot fit the run —
// uniform intervals longer than the run in total, even when their product
// overflows 64 bits, more phase windows than instructions, or a phase shape
// past the clustering bounds — is a 400 at admission, not a 500 (or a
// deadline) from the worker that bumps server.runs.failed. The server executes for real here, so a
// plan that slipped past validation would fail inside the run.
func TestSamplingPlanMustFitRun(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, BaseOptions: tinyOptions()})
	for name, body := range map[string]string{
		"uniform":        `{"design":"TLC","benchmark":"gcc","options":{"warm_instructions":10000,"run_instructions":1000,"sample_intervals":50}}`,
		"uniform length": `{"design":"TLC","benchmark":"gcc","options":{"warm_instructions":10000,"run_instructions":1000,"sample_intervals":50,"sample_length":2000}}`,
		"phase":          `{"design":"TLC","benchmark":"gcc","options":{"warm_instructions":10000,"run_instructions":10,"phase_windows":40,"phase_clusters":14}}`,
		// Fits the default 2 M run, but k-means over 2 M windows and
		// clusters would hold the worker far past any deadline.
		"phase shape": `{"design":"TLC","benchmark":"gcc","options":{"phase_windows":2000000,"phase_clusters":2000000}}`,
		// Intervals × Length wraps to 0 in 64 bits.
		"2 × 2^63":    `{"design":"TLC","benchmark":"gcc","options":{"sample_intervals":2,"sample_length":9223372036854775808}}`,
		"2^32 × 2^32": `{"design":"TLC","benchmark":"gcc","options":{"sample_intervals":4294967296,"sample_length":4294967296}}`,
	} {
		// A short deadline turns a plan that slips through into a 504
		// instead of a hang.
		resp, err := http.Post(hs.URL+"/v1/runs?timeout_ms=2000", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s plan that cannot fit the run: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	if got := counter(t, s, "server.runs.failed"); got != 0 {
		t.Errorf("failed counter = %d, want 0: a rejected plan must never reach a worker", got)
	}
}

// TestUnknownFieldsRejected: request bodies decode strictly. A misspelled
// or retired field answers 400 on both body-carrying endpoints instead of
// running a simulation that silently ignored it.
func TestUnknownFieldsRejected(t *testing.T) {
	var executions atomic.Uint64
	_, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			return stubRecord(d, bench), nil
		},
	})
	for name, c := range map[string]struct{ path, body string }{
		"run option":  {"/v1/runs", `{"design":"TLC","benchmark":"gcc","options":{"fidelty":"fast"}}`},
		"run field":   {"/v1/runs", `{"design":"TLC","benchmark":"gcc","priority":1}`},
		"sweep point": {"/v1/sweeps", `{"points":[{"design":"TLC","benchmark":"gcc","options":{"fidelity":"fast"}}]}`},
		"sweep field": {"/v1/sweeps", `{"points":[{"design":"TLC","benchmark":"gcc"}],"par":4}`},
	} {
		resp, err := http.Post(hs.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, data)
		}
	}
	if got := executions.Load(); got != 0 {
		t.Errorf("%d executions, want 0", got)
	}
}

// TestDrain: draining answers 503 on healthz and new runs, completes queued
// work, and Drain returns cleanly.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			once.Do(func() { close(started) })
			<-release
			return stubRecord(d, bench), nil
		},
	})

	// An in-flight run spans the drain: its waiter must still get a result.
	type outcome struct {
		status int
		rec    api.RunRecord
	}
	resc := make(chan outcome, 1)
	go func() {
		resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
		var rec api.RunRecord
		json.Unmarshal(data, &rec)
		resc <- outcome{resp.StatusCode, rec}
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// Liveness and readiness split: a draining server is alive (healthz
	// 200 — its cache still answers lookups) but not ready (readyz 503 —
	// it takes no new runs).
	if resp, err := http.Get(hs.URL + "/healthz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz while draining: status %d, want 200 (liveness, not readiness)", resp.StatusCode)
		}
	}
	if resp, err := http.Get(hs.URL + "/readyz"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
		}
	}
	resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "mcf"}, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new run while draining: status %d, want 503", resp.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-resc
	if out.status != http.StatusOK || out.rec.Cycles != 42 {
		t.Errorf("run spanning drain: status %d rec %+v", out.status, out.rec)
	}
}

// TestDrainBoundedWhenRunIgnoresCancel: a run that polls neither its
// context nor Options.Cancel keeps its worker busy forever, yet Drain must
// return ctx's error shortly after ctx expires instead of waiting on the
// worker. The watchdog fails the test rather than letting Drain hang the
// binary until go test -timeout.
func TestDrainBoundedWhenRunIgnoresCancel(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			close(started)
			<-release // ignores ctx and opt.Cancel
			return stubRecord(d, bench), nil
		},
	})
	// Cleanups run last-registered first: the stuck run is released before
	// the test server closes, which waits for the run's HTTP handler.
	t.Cleanup(func() { close(release) })

	go func() {
		resp, err := http.Post(hs.URL+"/v1/runs", "application/json",
			strings.NewReader(`{"design":"TLC","benchmark":"gcc"}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	select {
	case err := <-drained:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain: %v, want the context's deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain still waiting on a worker whose run ignores cancellation 10 s after its context expired")
	}
}

// TestDrainWithBlockedEnqueue: a figure-grid submit blocked on a full queue
// when Drain begins must fail with 503, not panic the process with a send
// on a closed channel (the queue channel is never closed).
func TestDrainWithBlockedEnqueue(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return stubRecord(d, bench), nil
		},
	})

	// Occupy the worker and the single queue slot.
	var wg sync.WaitGroup
	for _, bench := range []string{"gcc", "mcf"} {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: bench}, "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("occupying run %s: status %d", bench, resp.StatusCode)
			}
		}(bench)
		if bench == "gcc" {
			<-started // the worker holds gcc before mcf takes the queue slot
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// A wait=true submit (the figure-grid path) now blocks on the send.
	blocked := make(chan *httpError, 1)
	go func() {
		_, herr := s.submitKeyed(context.Background(), tlc.DesignTLC, "perl", tlc.DefaultOptions(), true)
		blocked <- herr
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the blocking enqueue

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	select {
	case herr := <-blocked:
		if herr == nil || herr.status != http.StatusServiceUnavailable {
			t.Fatalf("blocked enqueue during drain: %+v, want 503", herr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked enqueue never resolved during drain")
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
}

// TestNoCoalesceOntoCancelledFlight: after the last waiter of a queued run
// times out (cancelling the flight's context), a new identical request must
// install a fresh flight and succeed — not join the dead one and get a
// spurious "context canceled" 500.
func TestNoCoalesceOntoCancelledFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	_, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 2,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			if err := ctx.Err(); err != nil {
				return api.RunRecord{}, err
			}
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return api.RunRecord{}, ctx.Err()
			}
			return stubRecord(d, bench), nil
		},
	})

	// Occupy the worker with gcc; mcf queues behind it and its only waiter
	// times out, cancelling the mcf flight's context while it is queued.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("gcc: status %d", resp.StatusCode)
		}
	}()
	<-started
	resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "mcf"}, "?timeout_ms=50")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued mcf with 50ms deadline: status %d, want 504 (%s)", resp.StatusCode, data)
	}

	// A fresh mcf request while the worker is still busy must not inherit
	// the cancelled flight.
	type outcome struct {
		status int
		data   []byte
	}
	resc := make(chan outcome, 1)
	go func() {
		resp, data := postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "mcf"}, "")
		resc <- outcome{resp.StatusCode, data}
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	out := <-resc
	if out.status != http.StatusOK {
		t.Fatalf("mcf after its predecessor was cancelled: status %d, want 200 (%s)", out.status, out.data)
	}
	if rec := decodeRecord(t, out.data); rec.Cycles != 42 {
		t.Errorf("mcf record %+v, want the executed stub result", rec)
	}
	wg.Wait()
}

// TestFigureRendersWithoutResimulating: a simulated figure must render from
// the records its grid fill returned (seeding the suite), never by serially
// re-simulating grid points with a background context inside the handler —
// even when the suite holds none of the results (fresh suite, or results
// served straight from the LRU cache).
func TestFigureRendersWithoutResimulating(t *testing.T) {
	var executions atomic.Uint64
	_, hs := newTestServer(t, Config{
		Workers:     4,
		BaseOptions: tinyOptions(),
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			rec := stubRecord(d, bench)
			res := stubResult(d, bench)
			rec.Result = &res
			return rec, nil
		},
	})

	grid := uint64(2 * len(tlc.Benchmarks())) // table9: {DNUCA, TLC} x benches
	seeded := experiments.NewSuite(tinyOptions())
	for _, d := range []tlc.Design{tlc.DesignDNUCA, tlc.DesignTLC} {
		for _, b := range tlc.Benchmarks() {
			seeded.Seed(d, b, stubResult(d, b), nil)
		}
	}
	want := seeded.Table9().String()
	for fetch := 1; fetch <= 2; fetch++ {
		resp, err := http.Get(hs.URL + "/v1/figures/table9")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch %d: status %d (%s)", fetch, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), "Dynamic Components") {
			t.Fatalf("fetch %d: implausible table9: %.80s", fetch, data)
		}
		if got := executions.Load(); got != grid {
			t.Fatalf("fetch %d: %d executions, want %d (second fetch must be all cache hits)", fetch, got, grid)
		}
		if string(data) != want {
			t.Fatalf("fetch %d: table9 is not the stub records' table (a re-simulation prints real values):\n%s\nwant\n%s", fetch, data, want)
		}
	}
}

// TestFigureStatic: the physics-only figures render without simulation.
func TestFigureStatic(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(hs.URL + "/v1/figures/table1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table1: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(data), "Transmission Line Dimensions") {
		t.Errorf("table1 content implausible: %.80s", data)
	}
	if resp, err := http.Get(hs.URL + "/v1/figures/nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown figure: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestRetryAfterCountsOnlyBusyWorkers pins the idle-pool backpressure
// estimate: with a known mean run wall time and nothing executing, the
// estimate must not charge the client for Workers idle slots (the old
// formula answered a full mean — here 8s — for an empty, idle server).
func TestRetryAfterCountsOnlyBusyWorkers(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	s, hs := newTestServer(t, Config{
		Workers: 4,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			started <- struct{}{}
			select {
			case <-block:
			case <-ctx.Done():
			}
			return stubRecord(d, bench), nil
		},
	})
	s.observeWall(8000) // pretend runs take 8s

	// Idle pool, empty queue: the wait is the floor, not Workers × mean / Workers.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle-pool Retry-After = %ds, want 1s (only busy workers contribute backlog)", got)
	}

	// Two of four workers busy: backlog = 2 × 8000ms / 4 = 4s.
	var wg sync.WaitGroup
	for _, bench := range []string{"gcc", "mcf"} {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: bench}, "")
		}(bench)
	}
	<-started
	<-started
	if got := s.retryAfterSeconds(); got != 4 {
		t.Errorf("half-busy Retry-After = %ds, want 4s (2 busy × 8s / 4 workers)", got)
	}
	close(block)
	wg.Wait()
}

// TestSweepStreamsNDJSON: POST /v1/sweeps answers every grid point exactly
// once as NDJSON, duplicate points dedupe through cache/coalescing, and an
// empty or invalid sweep is a 400.
func TestSweepStreamsNDJSON(t *testing.T) {
	var executions atomic.Uint64
	s, hs := newTestServer(t, Config{
		Workers: 2,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			executions.Add(1)
			return stubRecord(d, bench), nil
		},
	})

	sreq := api.SweepRequest{Points: []api.RunRequest{
		{Design: "TLC", Benchmark: "gcc"},
		{Design: "TLC", Benchmark: "mcf"},
		{Design: "DNUCA", Benchmark: "gcc"},
		{Design: "TLC", Benchmark: "gcc"}, // duplicate of point 0
	}}
	body, _ := json.Marshal(sreq)
	resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("sweep Content-Type %q", ct)
	}
	seen := map[int]api.SweepPoint{}
	dec := json.NewDecoder(resp.Body)
	for {
		var p api.SweepPoint
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if _, dup := seen[p.Index]; dup {
			t.Fatalf("point %d streamed twice", p.Index)
		}
		seen[p.Index] = p
	}
	if len(seen) != len(sreq.Points) {
		t.Fatalf("stream delivered %d points, want %d", len(seen), len(sreq.Points))
	}
	for i, p := range seen {
		if p.Error != "" || p.Record == nil || p.Record.Cycles != 42 {
			t.Errorf("point %d = %+v, want a 42-cycle record", i, p)
		}
	}
	// The duplicate point must not simulate twice.
	if got := executions.Load(); got != 3 {
		t.Errorf("%d executions for 3 distinct points, want 3", got)
	}
	if got := counter(t, s, "server.runs.requested"); got != 4 {
		t.Errorf("requested counter = %d, want 4", got)
	}
	// The lane phase warmed gcc's two designs in one shared pass; lone mcf
	// was left to scalar warm-up.
	for name, want := range map[string]uint64{"sim.lanes.groups": 1, "sim.lanes.lanes_warmed": 2, "sim.lanes.scalar_points": 1} {
		if got := counter(t, s, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	for name, body := range map[string]string{
		"empty":         `{"points":[]}`,
		"invalid point": `{"points":[{"design":"NOPE","benchmark":"gcc"}]}`,
	} {
		resp, err := http.Post(hs.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s sweep: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestMetricz: the server's own counters are served as a sorted snapshot.
func TestMetricz(t *testing.T) {
	_, hs := newTestServer(t, Config{
		Workers: 1,
		execute: func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
			return stubRecord(d, bench), nil
		},
	})
	postRun(t, hs.URL, api.RunRequest{Design: "TLC", Benchmark: "gcc"}, "")
	resp, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, m := range snap {
		vals[m.Name] = m.Value
	}
	if vals["server.runs.executed"] != 1 {
		t.Errorf("metricz executed = %v, want 1", vals["server.runs.executed"])
	}
	if vals["server.http.requests"] < 1 {
		t.Error("metricz http.requests not counted")
	}
}
