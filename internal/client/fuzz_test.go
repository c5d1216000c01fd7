package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tlc/internal/api"
)

// FuzzParseRetryAfter: every Retry-After value the client accepts is a
// positive wait. A zero or negative one would make the retry loop spin
// through its attempts with no backoff.
func FuzzParseRetryAfter(f *testing.F) {
	for _, ra := range []string{
		"", "0", "-1", "1", "120", "+5", "garbage",
		"10000000000",         // overflows time.Duration when multiplied out
		"9223372036854775807", // math.MaxInt64
		"99999999999999999999",
		"Fri, 31 Dec 1999 23:59:59 GMT",
		"Fri, 31 Dec 9999 23:59:59 GMT",
		time.Now().Add(time.Hour).UTC().Format(http.TimeFormat),
	} {
		f.Add(ra)
	}
	f.Fuzz(func(t *testing.T, ra string) {
		if d, ok := parseRetryAfter(ra); ok && d <= 0 {
			t.Fatalf("parseRetryAfter(%q) = (%v, true), want a positive wait", ra, d)
		}
	})
}

// FuzzSweepStream serves arbitrary bytes as the 200 body of POST
// /v1/sweeps. Sweep must return nil or an error, calling fn at most once
// per body byte, and must never panic or hang: the deadline below is far
// beyond any decode of a fuzz-sized body, so reaching it counts as a hang.
func FuzzSweepStream(f *testing.F) {
	for _, body := range []string{
		"",
		"{\"index\":0,\"record\":{\"design\":\"TLC\",\"benchmark\":\"gcc\",\"cycles\":7}}\n{\"index\":1,\"error\":\"deadline\"}\n",
		"{\"index\":0}\n{\"index\":",
		"{\"index\":\"x\"}\n",
		"[1,2,3]",
		"null\nnull\n",
		"{\"index\":0,\"record\":{\"result\":{\"Design\":99}}}",
	} {
		f.Add([]byte(body))
	}
	var body atomic.Pointer[[]byte]
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(*body.Load())
	}))
	defer hs.Close()
	c := fastClient(hs.URL)
	req := api.SweepRequest{Points: []api.RunRequest{{Design: "TLC", Benchmark: "gcc"}}}

	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(&data)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		calls := 0
		c.Sweep(ctx, req, func(api.SweepPoint) error {
			calls++
			return nil
		})
		if ctx.Err() != nil {
			t.Fatalf("Sweep still decoding a %d-byte body at its deadline", len(data))
		}
		if calls > len(data) {
			t.Fatalf("%d points decoded from a %d-byte body", calls, len(data))
		}
	})
}
