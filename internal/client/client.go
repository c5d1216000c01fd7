// Package client is the typed Go client of the tlcd experiment service
// (internal/server). It speaks the internal/api wire types and absorbs the
// service's backpressure: 429 responses are retried after the server's
// Retry-After estimate, transient 5xx responses with exponential backoff.
// A run record fetched through the client reconstructs (RunRecord.ToResult)
// the exact tlc.Result an in-process run returns — remote and local paths
// are byte-identical.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tlc/internal/api"
)

// Client calls one tlcd instance. The zero value is not usable; construct
// with New.
type Client struct {
	base string
	hc   *http.Client

	// Retries bounds re-attempts after a retryable status (429, 502, 503,
	// 504) or a transport error; the first attempt is not counted.
	Retries int
	// Backoff is the initial retry delay for responses without a
	// Retry-After header; it doubles per attempt and is capped at MaxBackoff.
	// MaxBackoff bounds only this exponential path: a server-provided
	// Retry-After is honored as-is — under a long backlog the server's
	// estimate can be minutes, and retrying earlier just burns attempts on
	// guaranteed 429s. Bound total waiting with the request context instead.
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8080").
// httpc may be nil for http.DefaultClient.
func New(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         httpc,
		Retries:    8,
		Backoff:    100 * time.Millisecond,
		MaxBackoff: 5 * time.Second,
	}
}

// StatusError is a non-2xx service response after retries are exhausted
// (or a non-retryable status).
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Msg)
}

// retryable statuses: explicit backpressure plus transient gateway/server
// conditions. 500 is excluded — the service uses it for deterministic run
// errors (bad config reaching execution), which retrying cannot fix.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// maxRetryAfterSecs is the longest delay-seconds value a time.Duration
// can hold (about 292 years).
const maxRetryAfterSecs = int64(math.MaxInt64 / time.Second)

// parseRetryAfter resolves a Retry-After header in either RFC 9110 form:
// delay-seconds ("120") or an HTTP-date ("Fri, 31 Dec 1999 23:59:59 GMT").
// Non-positive delays — a date already past, or "0" — and delay-seconds
// too large for a time.Duration report false, so the caller falls back to
// exponential backoff rather than spinning.
func parseRetryAfter(ra string) (time.Duration, bool) {
	if ra == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(ra, 10, 64); err == nil {
		if secs <= 0 || secs > maxRetryAfterSecs {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(ra); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// do issues one request with the retry/backoff policy and decodes a 2xx
// JSON body into out (skipped when out is nil). Request bodies are replayed
// from body on each attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	backoff := c.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		fromRetryAfter := false
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}

		resp, err := c.hc.Do(req)
		var wait time.Duration
		if err != nil {
			// Transport errors (connection refused mid-restart, reset) are
			// retryable unless the context is done.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			wait = backoff
		} else {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				lastErr = rerr
				wait = backoff
			} else if resp.StatusCode/100 == 2 {
				if out == nil {
					return nil
				}
				return json.Unmarshal(data, out)
			} else {
				var apiErr api.Error
				json.Unmarshal(data, &apiErr)
				if apiErr.Error == "" {
					apiErr.Error = strings.TrimSpace(string(data))
				}
				serr := &StatusError{Status: resp.StatusCode, Msg: apiErr.Error}
				if !retryable(resp.StatusCode) {
					return serr
				}
				lastErr = serr
				wait = backoff
				if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
					wait = d
					fromRetryAfter = true
				}
			}
		}

		if attempt >= c.Retries {
			return fmt.Errorf("client: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		backoff *= 2
		if backoff > c.MaxBackoff {
			backoff = c.MaxBackoff
		}
		// MaxBackoff caps only the exponential path; a server-provided
		// Retry-After is the exact time space frees — waiting less would
		// burn the remaining attempts on guaranteed 429s.
		if wait > c.MaxBackoff && !fromRetryAfter {
			wait = c.MaxBackoff
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Run executes (or fetches) one configuration on the server and returns its
// record. The record's Result field reconstructs exactly what an in-process
// tlc.Run returns.
func (c *Client) Run(ctx context.Context, req api.RunRequest) (api.RunRecord, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return api.RunRecord{}, err
	}
	var rec api.RunRecord
	if err := c.do(ctx, http.MethodPost, "/v1/runs", body, &rec); err != nil {
		return api.RunRecord{}, err
	}
	return rec, nil
}

// Sweep streams a grid through POST /v1/sweeps: one request, NDJSON back,
// fn called once per completed point in completion order (Index joins a
// point to the request). A non-nil fn error abandons the stream.
//
// The stream is not retried: a sweep is not an idempotent replayable body
// once points have been consumed. A torn connection surfaces as an error;
// the caller re-issues the sweep, and the server's result cache makes the
// replay cheap.
func (c *Client) Sweep(ctx context.Context, sreq api.SweepRequest, fn func(api.SweepPoint) error) error {
	body, err := json.Marshal(sreq)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		var apiErr api.Error
		json.Unmarshal(data, &apiErr)
		if apiErr.Error == "" {
			apiErr.Error = strings.TrimSpace(string(data))
		}
		return &StatusError{Status: resp.StatusCode, Msg: apiErr.Error}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var p api.SweepPoint
		if err := dec.Decode(&p); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("client: sweep stream: %w", err)
		}
		if err := fn(p); err != nil {
			return err
		}
	}
}

// Health probes /healthz; nil means the server is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Status: resp.StatusCode, Msg: "unhealthy"}
	}
	return nil
}
