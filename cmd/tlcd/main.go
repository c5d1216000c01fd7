// Command tlcd serves the paper's evaluation as an HTTP API: POST a
// (design, benchmark, options) configuration to /v1/runs and get back the
// same run record a local tlcbench invocation would produce — byte-identical
// results, content-addressed caching, coalescing of identical in-flight
// requests, and explicit backpressure when the worker pool is saturated.
//
//	tlcd -addr :8080 -workers 8 -queue 32 -ckptdir /var/cache/tlc
//
// -addr accepts ":0" to bind any free port; the chosen address is printed
// as "tlcd listening on <host:port>" for scripts to scrape.
//
// SIGINT/SIGTERM drain gracefully: intake stops (readyz flips to 503 while
// healthz stays 200 — the process is alive and its cache still answers
// lookups), queued and executing runs finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"tlc"
	"tlc/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (\":0\" binds a free port)")
		workers    = flag.Int("workers", runtime.NumCPU(), "concurrent simulation workers")
		queue      = flag.Int("queue", 0, "queued-run bound before 429s (default 4x workers)")
		cacheSize  = flag.Int("cache", 4096, "result cache entries")
		ckptdir    = flag.String("ckptdir", "", "checkpoint directory (adds a persistent warm-state tier)")
		timeout    = flag.Duration("timeout", 5*time.Minute, "default per-request deadline")
		maxTimeout = flag.Duration("max-timeout", 30*time.Minute, "cap on client-requested deadlines")
		drainWait  = flag.Duration("drain", 2*time.Minute, "shutdown drain bound")
		seed       = flag.Int64("seed", 1, "base options seed for figure endpoints")
		quick      = flag.Bool("quick", false, "quick base options for figure endpoints (shorter runs)")
		cores      = flag.Int("cores", 1, "base options CMP core count for figure endpoints (run requests set their own)")
		sharing    = flag.String("sharing", "", "base options CMP sharing pattern: private|producer-consumer|migratory|read-mostly")
	)
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tlcd: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := tlc.DefaultOptions()
	base.Seed = *seed
	if *quick {
		base.WarmInstructions = 2_000_000
		base.RunInstructions = 200_000
	}
	if *cores < 1 {
		log.Fatalf("tlcd: -cores %d: need at least 1", *cores)
	}
	base.Cores = *cores
	base.Sharing = tlc.SharingSpec{Pattern: *sharing}
	if err := base.Validate(); err != nil {
		log.Fatalf("tlcd: %v", err)
	}

	ckpts := tlc.NewCheckpointStore(0, *ckptdir)
	profiles := tlc.NewPhaseProfileStore(0, *ckptdir)
	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Checkpoints:    ckpts,
		Profiles:       profiles,
		BaseOptions:    base,
	}

	srv := server.New(cfg)
	hs := &http.Server{Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("tlcd listening on %s (%d workers, queue %d)", bound, *workers, queueOr(*queue, 4**workers))
		errc <- hs.Serve(ln)
	}()

	select {
	case err := <-errc:
		log.Fatalf("tlcd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("tlcd: draining (bound %v)", *drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop intake first so in-flight HTTP waiters get their answers, then
	// close the listener and let active handlers finish.
	drainErr := srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("tlcd: http shutdown: %v", err)
	}
	// A checkpoint directory that could not be written, or held files
	// that did not decode, degraded the stores without failing a request.
	if err := ckpts.DiskErr(); err != nil {
		log.Printf("tlcd: warning: -ckptdir: %v (checkpoints not persisted)", err)
	}
	if err := profiles.DiskErr(); err != nil {
		log.Printf("tlcd: warning: -ckptdir: %v (phase profiles not persisted)", err)
	}
	if drainErr != nil {
		log.Fatalf("tlcd: drain: %v", drainErr)
	}
	fmt.Println("tlcd: drained cleanly")
}

// queueOr mirrors server.New's queue default for the startup log line.
func queueOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
