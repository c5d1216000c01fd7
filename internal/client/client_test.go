package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tlc/internal/api"
)

// fastClient returns a client with sub-millisecond backoff for tests.
func fastClient(url string) *Client {
	c := New(url, nil)
	c.Backoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	return c
}

// TestRetryOn429 drives the backpressure contract: 429 responses (with
// Retry-After honored) are retried until the server admits the run.
func TestRetryOn429(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // ignored (non-positive): falls back to backoff
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.Error{Error: "run queue is full"})
			return
		}
		json.NewEncoder(w).Encode(api.RunRecord{Design: "TLC", Benchmark: "gcc", Cycles: 7})
	}))
	defer hs.Close()

	rec, err := fastClient(hs.URL).Run(context.Background(), api.RunRequest{Design: "TLC", Benchmark: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cycles != 7 {
		t.Fatalf("rec = %+v", rec)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d requests, want 3 (two 429s then success)", got)
	}
}

// TestRetryAfterNotClampedByMaxBackoff: a server-provided Retry-After
// beyond MaxBackoff is honored in full — MaxBackoff caps only the
// exponential backoff path, so a long-backlog estimate (minutes) is not
// turned into a burst of early retries.
func TestRetryAfterNotClampedByMaxBackoff(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.Error{Error: "run queue is full"})
			return
		}
		json.NewEncoder(w).Encode(api.RunRecord{Design: "TLC", Benchmark: "gcc", Cycles: 7})
	}))
	defer hs.Close()

	c := fastClient(hs.URL) // MaxBackoff 5ms, far below the 1s Retry-After
	start := time.Now()
	rec, err := c.Run(context.Background(), api.RunRequest{Design: "TLC", Benchmark: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cycles != 7 {
		t.Fatalf("rec = %+v", rec)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d requests, want 2 (one 429 then success)", got)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, want the full 1s Retry-After honored", elapsed)
	}
}

// TestRetryAfterHTTPDateForm: RFC 9110 allows Retry-After as an HTTP-date
// as well as delay-seconds. The date form must be honored as a wait until
// that instant — not silently ignored in favor of the (much shorter)
// exponential backoff.
func TestRetryAfterHTTPDateForm(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.Error{Error: "run queue is full"})
			return
		}
		json.NewEncoder(w).Encode(api.RunRecord{Design: "TLC", Benchmark: "gcc", Cycles: 7})
	}))
	defer hs.Close()

	c := fastClient(hs.URL) // millisecond backoff: only the parsed date explains a ~1s+ wait
	start := time.Now()
	rec, err := c.Run(context.Background(), api.RunRequest{Design: "TLC", Benchmark: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cycles != 7 {
		t.Fatalf("rec = %+v", rec)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d requests, want 2 (one 429 then success)", got)
	}
	// The header's wall-clock instant has 1s resolution, so "now + 2s"
	// guarantees at least ~1s of mandated wait even after truncation.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v: the HTTP-date Retry-After was not honored", elapsed)
	}
}

// TestRetryAfterDateInPast: a stale HTTP-date (already elapsed) falls back
// to exponential backoff instead of a zero or negative sleep loop.
func TestRetryAfterDateInPast(t *testing.T) {
	if d, ok := parseRetryAfter(time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)); ok {
		t.Fatalf("past HTTP-date parsed as a %v wait, want fallback to backoff", d)
	}
	if d, ok := parseRetryAfter("120"); !ok || d != 2*time.Minute {
		t.Fatalf("delay-seconds form parsed as (%v, %v), want (2m, true)", d, ok)
	}
	if _, ok := parseRetryAfter("garbage"); ok {
		t.Fatal("unparseable Retry-After treated as a wait")
	}
	// 10^10 s overflows time.Duration: multiplied out it wraps negative,
	// and a negative wait would burn every retry with no backoff at all.
	if d, ok := parseRetryAfter("10000000000"); ok {
		t.Fatalf("overflowing delay-seconds parsed as a %v wait, want fallback to backoff", d)
	}
}

// TestSweepStreams: NDJSON points are surfaced one at a time, in stream
// order, with Index preserved; a non-200 opening status maps to StatusError.
func TestSweepStreams(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweeps" {
			t.Errorf("sweep posted to %s", r.URL.Path)
		}
		var sreq api.SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&sreq); err != nil {
			t.Errorf("decoding sweep request: %v", err)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		// Completion order deliberately differs from request order.
		for _, i := range []int{1, 0, 2} {
			enc.Encode(api.SweepPoint{Index: i, Record: &api.RunRecord{Cycles: uint64(100 + i)}})
		}
	}))
	defer hs.Close()

	req := api.SweepRequest{Points: []api.RunRequest{
		{Design: "TLC", Benchmark: "gcc"},
		{Design: "TLC", Benchmark: "mcf"},
		{Design: "DNUCA", Benchmark: "gcc"},
	}}
	var got []int
	err := fastClient(hs.URL).Sweep(context.Background(), req, func(p api.SweepPoint) error {
		if p.Record == nil || p.Record.Cycles != uint64(100+p.Index) {
			t.Errorf("point %d carries record %+v", p.Index, p.Record)
		}
		got = append(got, p.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("points arrived as %v, want stream order [1 0 2]", got)
	}

	hs2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.Error{Error: "sweep has no points"})
	}))
	defer hs2.Close()
	err = fastClient(hs2.URL).Sweep(context.Background(), api.SweepRequest{}, func(api.SweepPoint) error { return nil })
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Status != http.StatusBadRequest {
		t.Fatalf("sweep error = %v, want 400 StatusError", err)
	}
}

// TestNoRetryOn400And500: deterministic failures surface immediately.
func TestNoRetryOn400And500(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusInternalServerError} {
		var calls atomic.Int64
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(api.Error{Error: "nope"})
		}))
		_, err := fastClient(hs.URL).Run(context.Background(), api.RunRequest{Design: "TLC", Benchmark: "gcc"})
		hs.Close()
		var serr *StatusError
		if !errors.As(err, &serr) || serr.Status != status {
			t.Fatalf("status %d: err = %v, want StatusError with that status", status, err)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("status %d retried (%d requests), deterministic failures must not retry", status, got)
		}
	}
}

// TestRetriesExhausted: persistent 503s end in an error wrapping the last
// StatusError after Retries+1 attempts.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	c := fastClient(hs.URL)
	c.Retries = 2
	_, err := c.Run(context.Background(), api.RunRequest{Design: "TLC", Benchmark: "gcc"})
	var serr *StatusError
	if !errors.As(err, &serr) || serr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503 StatusError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d requests, want 3 (initial + 2 retries)", got)
	}
}

// TestContextCancelsRetryLoop: a cancelled context stops the backoff sleep.
func TestContextCancelsRetryLoop(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer hs.Close()

	c := New(hs.URL, nil) // default MaxBackoff: the 30s Retry-After is honored
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Run(ctx, api.RunRequest{Design: "TLC", Benchmark: "gcc"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop ignored the context and slept through Retry-After")
	}
}
