// Command tlcd serves the paper's evaluation as an HTTP API: POST a
// (design, benchmark, options) configuration to /v1/runs and get back the
// same run record a local tlcbench invocation would produce — byte-identical
// results, content-addressed caching, coalescing of identical in-flight
// requests, and explicit backpressure when the worker pool is saturated.
//
//	tlcd -addr :8080 -workers 8 -queue 32 -ckptdir /var/cache/tlc
//
// A fleet is the same binary in two roles. A coordinator owns no
// simulations — it consistent-hashes run keys across registered workers
// and proxies the run API; workers join it and pull remapped keys from
// each other's result caches before simulating:
//
//	tlcd -coordinator -addr :8080
//	tlcd -addr 127.0.0.1:0 -join http://127.0.0.1:8080   # × N workers
//
// -addr accepts ":0" to bind any free port; the chosen address is printed
// as "tlcd listening on <host:port>" for scripts to scrape.
//
// SIGINT/SIGTERM drain gracefully: intake stops (readyz flips to 503 so a
// coordinator stops routing here, while healthz stays 200 — the process is
// alive and its cache still answers peer fills), queued and executing runs
// finish, then the process exits.
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
	"tlc/internal/fleet"
	"tlc/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (\":0\" binds a free port)")
		workers     = flag.Int("workers", runtime.NumCPU(), "concurrent simulation workers")
		queue       = flag.Int("queue", 0, "queued-run bound before 429s (default 4x workers)")
		cacheSize   = flag.Int("cache", 4096, "result cache entries")
		ckptdir     = flag.String("ckptdir", "", "checkpoint directory (adds a persistent warm-state tier)")
		timeout     = flag.Duration("timeout", 5*time.Minute, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Minute, "cap on client-requested deadlines")
		drainWait   = flag.Duration("drain", 2*time.Minute, "shutdown drain bound")
		seed        = flag.Int64("seed", 1, "base options seed for figure endpoints")
		quick       = flag.Bool("quick", false, "quick base options for figure endpoints (shorter runs)")
		cores       = flag.Int("cores", 1, "base options CMP core count for figure endpoints (run requests set their own)")
		sharing     = flag.String("sharing", "", "base options CMP sharing pattern: private|producer-consumer|migratory|read-mostly")
		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator (routes runs, simulates nothing)")
		join        = flag.String("join", "", "coordinator base URL to register with as a worker")
		advertise   = flag.String("advertise", "", "base URL peers reach this worker at (default http://<bound addr>)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "fleet registration/health-probe interval")
	)
	flag.Parse()

	if *coordinator && *join != "" {
		log.Fatal("tlcd: -coordinator and -join are mutually exclusive")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tlcd: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordinator {
		runCoordinator(ctx, ln, bound, *heartbeat, *drainWait)
		return
	}

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

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Checkpoints:    tlc.NewCheckpointStore(0, *ckptdir),
		Profiles:       tlc.NewPhaseProfileStore(0, *ckptdir),
		BaseOptions:    base,
	}

	var member *fleet.Member
	if *join != "" {
		self := *advertise
		if self == "" {
			self = "http://" + advertiseHost(bound)
		}
		member = fleet.Join(*join, self, *heartbeat, 0)
		cfg.PeerFill = member.PeerFill
		// Phase profiles peer-fill too: a worker about to profile a
		// workload first asks the key's ring owner for its cached
		// clustering (a pure Peek on the peer), so the fleet pays each
		// profiling pass once.
		cfg.Profiles.SetFill(member.ProfileFill)
		log.Printf("tlcd: joined fleet at %s as %s", *join, self)
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

	// Leave the fleet first: stopping the heartbeat keeps a re-registration
	// from marking this draining worker routable again. The coordinator's
	// probe sees readyz 503 and stops sending new keys; the cache keeps
	// answering peer fills until the process exits.
	if member != nil {
		member.Close()
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
	if drainErr != nil {
		log.Fatalf("tlcd: drain: %v", drainErr)
	}
	fmt.Println("tlcd: drained cleanly")
}

// runCoordinator serves the fleet routing layer until the context signals
// shutdown.
func runCoordinator(ctx context.Context, ln net.Listener, bound string, heartbeat, drainWait time.Duration) {
	coord := fleet.NewCoordinator(fleet.Config{HealthInterval: heartbeat})
	hs := &http.Server{Handler: coord.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("tlcd coordinator listening on %s", bound)
		errc <- hs.Serve(ln)
	}()
	select {
	case err := <-errc:
		log.Fatalf("tlcd: %v", err)
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("tlcd: http shutdown: %v", err)
	}
	coord.Close()
	fmt.Println("tlcd: drained cleanly")
}

// advertiseHost rewrites a bound listen address into one peers can dial:
// an unspecified host (":8080" binds "[::]" or "0.0.0.0") becomes
// loopback, which is right for single-machine fleets; multi-host fleets
// pass -advertise explicitly.
func advertiseHost(bound string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return bound
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return bound
}

// queueOr mirrors server.New's queue default for the startup log line.
func queueOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
