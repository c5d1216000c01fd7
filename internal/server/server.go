// Package server implements the tlcd experiment service: the paper's
// evaluation behind an HTTP API. One long-running process amortizes what
// every one-shot CLI invocation re-pays — warm state, identical grid
// points, in-flight duplicates. A request meets two deduplication layers,
// in order, before any work is queued:
//
//  1. a content-addressed LRU result cache keyed by tlc.RunKey (hits are
//     served without touching a worker),
//  2. request coalescing: an identical in-flight configuration (a flight,
//     keyed by the same RunKey) is joined, not re-enqueued.
//
// A new flight goes to a bounded worker pool fed by a bounded queue with
// explicit backpressure — a full queue rejects with 429 and a Retry-After
// estimate instead of queueing without bound — and the worker runs the
// simulation itself (tlc.Run or tlc.RunSampled).
//
// Per-request deadlines are cooperative: the executing simulation polls the
// request context at batch boundaries (tlc.Options.Cancel), so an expired
// deadline abandons the run mid-flight instead of simulating to completion
// for a client that stopped waiting. All runs share one warm-state
// checkpoint store: concurrent requests for the same benchmark reuse one
// warm prefix.
package server

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/experiments"
	"tlc/internal/metrics"
	"tlc/internal/sim"
)

// Config parameterizes a Server. The zero value is usable: every field has
// a documented default.
type Config struct {
	// Workers bounds concurrent simulations (default 4).
	Workers int
	// QueueDepth bounds runs admitted but not yet executing; a full queue
	// rejects with 429 (default 4×Workers).
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 4096).
	CacheSize int
	// DefaultTimeout applies to requests that set none; MaxTimeout caps
	// client-requested timeouts (defaults 5m / 30m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Checkpoints is the shared warm-state store (an in-memory store is
	// built when nil). CheckpointDir adds a disk tier to the built store.
	Checkpoints   *tlc.CheckpointStore
	CheckpointDir string
	// Profiles is the shared phase-profile store every phase-sampled run
	// uses (an in-memory store is built when nil; CheckpointDir adds its
	// disk tier too).
	Profiles *tlc.PhaseProfileStore
	// BaseOptions are the options figure endpoints run with, and the
	// defaults RunOptions expand against conceptually (clients always send
	// explicit options; BaseOptions only drive /v1/figures). Zero means
	// tlc.DefaultOptions.
	BaseOptions tlc.Options

	// execute overrides run execution, for tests. The default, executeRun,
	// simulates directly: the result cache and the flight map in front of
	// it are the only deduplication.
	execute func(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error)
}

// Server is the service state. Create with New, serve via Handler, stop
// with Drain.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	start time.Time

	mu       sync.Mutex
	flights  map[string]*runFlight // in-flight runs by RunKey
	cache    *lru                  // RunKey -> api.RunRecord
	draining bool

	queue   chan *runFlight
	workers sync.WaitGroup
	// drain closes when Drain begins: blocked figure-grid enqueues abort on
	// it with 503 instead of sending into a shutting-down pool. settled
	// closes once every blocking enqueue admitted before the drain has
	// resolved (tracked by sending), after which the queue can only shrink
	// and workers exit when it empties. The queue channel itself is never
	// closed, so no send can panic during shutdown.
	drain   chan struct{}
	settled chan struct{}
	sending sync.WaitGroup

	// nInFlight counts flights a worker is currently executing. It feeds
	// the Retry-After estimate: only busy workers contribute backlog, so
	// the first 429 after a quiet period does not charge the client for a
	// full pool of idle workers.
	nInFlight atomic.Int64

	// Counters behind /metricz; atomics so the HTTP paths never contend
	// with the worker pool on mu for bookkeeping.
	nRequested atomic.Uint64
	nExecuted  atomic.Uint64
	nCacheHits atomic.Uint64
	nCoalesced atomic.Uint64
	nRejected  atomic.Uint64
	nDeadline  atomic.Uint64
	nFailed    atomic.Uint64
	nHTTP      atomic.Uint64

	// Lane-parallel warm phase: sweep and figure grids are warmed once per
	// shared-stream group before their points are submitted. laneMu
	// serializes the passes (concurrent grids would mostly duplicate each
	// other's warm work).
	laneMu      sync.Mutex
	nLaneGroups atomic.Uint64
	nLaneWarmed atomic.Uint64
	nLaneBatch  atomic.Uint64
	nLaneScalar atomic.Uint64
	// wallEWMA is an exponentially weighted mean of executed-run wall time
	// in milliseconds (float64 bits), feeding the Retry-After estimate.
	wallEWMA atomic.Uint64
}

// runFlight is one admitted run: installed in the flights map at admission,
// executed by a worker, awaited by its requesters. Its context is the union
// of its waiters' interest — it cancels when the last waiter gives up, so
// an abandoned run stops simulating at the next batch boundary.
type runFlight struct {
	key    string
	design tlc.Design
	bench  string
	opt    tlc.Options

	ctx    context.Context
	cancel context.CancelFunc
	refs   int // guarded by Server.mu

	done chan struct{}
	rec  api.RunRecord
	err  error
}

// defaultCacheSize is the result-cache capacity when Config.CacheSize is
// zero or invalid.
const defaultCacheSize = 4096

// New builds a server. Call Drain before discarding it.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	// CacheSize 0 means "default" by contract; anything negative is a
	// misconfiguration that would otherwise build a degenerate LRU (every
	// record evicted the moment it is inserted — a silently disabled result
	// cache). Clamp loudly instead.
	if cfg.CacheSize < 0 {
		log.Printf("server: invalid CacheSize %d clamped to default %d (a non-positive capacity would disable the result cache)", cfg.CacheSize, defaultCacheSize)
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Minute
	}
	if cfg.Checkpoints == nil {
		cfg.Checkpoints = tlc.NewCheckpointStore(0, cfg.CheckpointDir)
	}
	if cfg.Profiles == nil {
		cfg.Profiles = tlc.NewPhaseProfileStore(0, cfg.CheckpointDir)
	}
	if cfg.BaseOptions.RunInstructions == 0 {
		base := tlc.DefaultOptions()
		base.Seed = cfg.BaseOptions.Seed
		if base.Seed == 0 {
			base.Seed = 1
		}
		cfg.BaseOptions = base
	}

	s := &Server{
		cfg:     cfg,
		reg:     metrics.New(),
		start:   time.Now(),
		flights: make(map[string]*runFlight),
		cache:   newLRU(cfg.CacheSize),
		queue:   make(chan *runFlight, cfg.QueueDepth),
		drain:   make(chan struct{}),
		settled: make(chan struct{}),
	}
	if s.cfg.execute == nil {
		s.cfg.execute = s.executeRun
	}
	s.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// registerMetrics publishes the server's own counters on its registry —
// the same instrumentation spine the simulation layers use, read by
// /metricz.
func (s *Server) registerMetrics() {
	s.reg.CounterFunc("server.runs.requested", s.nRequested.Load)
	s.reg.CounterFunc("server.runs.executed", s.nExecuted.Load)
	s.reg.CounterFunc("server.runs.cache_hits", s.nCacheHits.Load)
	s.reg.CounterFunc("server.runs.coalesced", s.nCoalesced.Load)
	s.reg.CounterFunc("server.runs.rejected", s.nRejected.Load)
	s.reg.CounterFunc("server.runs.deadline_exceeded", s.nDeadline.Load)
	s.reg.CounterFunc("server.runs.failed", s.nFailed.Load)
	s.reg.CounterFunc("server.http.requests", s.nHTTP.Load)
	s.reg.Gauge("server.runs.inflight", func(sim.Time) float64 { return float64(s.nInFlight.Load()) })
	s.reg.Gauge("server.queue.depth", func(sim.Time) float64 { return float64(len(s.queue)) })
	s.reg.Gauge("server.queue.capacity", func(sim.Time) float64 { return float64(cap(s.queue)) })
	s.reg.Gauge("server.uptime_seconds", func(sim.Time) float64 { return time.Since(s.start).Seconds() })
	s.reg.Gauge("server.run_wall_ewma_ms", func(sim.Time) float64 { return s.meanWallMS() })
	ck := s.cfg.Checkpoints
	s.reg.CounterFunc("server.checkpoints.hits", func() uint64 { return ck.Stats().Hits })
	s.reg.CounterFunc("server.checkpoints.misses", func() uint64 { return ck.Stats().Misses })
	pr := s.cfg.Profiles
	s.reg.CounterFunc("server.profiles.hits", func() uint64 { return pr.Stats().Hits })
	s.reg.CounterFunc("server.profiles.misses", func() uint64 { return pr.Stats().Misses })
	// The sim.lanes.* spine: how much grid warm-up the lane-parallel
	// passes absorbed (/metricz exposes these next to the run counters).
	s.reg.CounterFunc("sim.lanes.groups", s.nLaneGroups.Load)
	s.reg.CounterFunc("sim.lanes.lanes_warmed", s.nLaneWarmed.Load)
	s.reg.CounterFunc("sim.lanes.batches_shared", s.nLaneBatch.Load)
	s.reg.CounterFunc("sim.lanes.scalar_points", s.nLaneScalar.Load)
}

// laneWarm pre-pays a grid's warm-ups into the shared checkpoint store
// through one serial experiments.WarmGrid, so the submits that follow
// restore checkpoints instead of re-warming per point. Purely an
// accelerator — lane-warmed state is pinned bit-identical to scalar
// warm-up — so a pass the request's deadline cuts short just leaves its
// points to warm scalar in their own runs.
func (s *Server) laneWarm(ctx context.Context, points []experiments.GridPoint) {
	for i := range points {
		points[i].Opt.Checkpoints = s.cfg.Checkpoints
		points[i].Opt.Cancel = ctx.Err
	}
	s.laneMu.Lock()
	t := experiments.WarmGrid(points, 1)
	s.laneMu.Unlock()
	s.nLaneGroups.Add(t.Groups)
	s.nLaneWarmed.Add(t.Lanes)
	s.nLaneBatch.Add(t.Batches)
	s.nLaneScalar.Add(t.ScalarPoints)
}

// Metrics exposes the server's registry (tests and /metricz).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// httpError carries an HTTP status through the submit path.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; nonzero only for 429
}

func (e *httpError) Error() string { return e.msg }

// submit is the core of POST /v1/runs: resolve the content address, then
// cache → coalesce → enqueue, and wait bounded by ctx. wait=true turns a
// full queue into a ctx-bounded blocking enqueue instead of a 429 — the
// figure endpoints use it for their internal grid fills so one figure
// request cannot trip its own backpressure.
func (s *Server) submit(ctx context.Context, req api.RunRequest, wait bool) (api.RunRecord, *httpError) {
	d, err := req.Validate()
	if err != nil {
		return api.RunRecord{}, &httpError{status: 400, msg: err.Error()}
	}
	return s.submitKeyed(ctx, d, req.Benchmark, req.Options.Options(), wait)
}

// submitKeyed is submit after validation; the figure endpoints call it
// directly for their grid fills.
func (s *Server) submitKeyed(ctx context.Context, d tlc.Design, bench string, opt tlc.Options, wait bool) (api.RunRecord, *httpError) {
	s.nRequested.Add(1)
	key := tlc.RunKey(d, bench, opt)

	s.mu.Lock()
	if rec, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		s.nCacheHits.Add(1)
		rec.Cached = true
		return rec, nil
	}
	if s.draining {
		s.mu.Unlock()
		return api.RunRecord{}, &httpError{status: 503, msg: "server is draining"}
	}
	f, joined := s.flights[key]
	// Never coalesce onto a flight whose context is already cancelled (its
	// last waiter gave up): incrementing refs cannot un-cancel it, so a
	// joiner would inherit a spurious "context canceled" failure. deref
	// removes dead flights under mu, so this is defense in depth.
	if joined && f.ctx.Err() == nil {
		f.refs++
		s.nCoalesced.Add(1)
	} else {
		joined = false
		f = &runFlight{key: key, design: d, bench: bench, opt: opt, done: make(chan struct{}), refs: 1}
		f.ctx, f.cancel = context.WithCancel(context.Background())
		s.flights[key] = f
		if !wait {
			select {
			case s.queue <- f:
			default:
				delete(s.flights, key)
				f.cancel()
				s.mu.Unlock()
				s.nRejected.Add(1)
				return api.RunRecord{}, &httpError{
					status:     429,
					msg:        "run queue is full",
					retryAfter: s.retryAfterSeconds(),
				}
			}
		} else {
			// Register the upcoming blocking enqueue while mu still
			// guarantees !draining, so Drain can wait for it to resolve
			// before telling the workers the queue is settled.
			s.sending.Add(1)
		}
	}
	s.mu.Unlock()

	if wait && !joined {
		if herr := s.blockingEnqueue(ctx, f); herr != nil {
			return api.RunRecord{}, herr
		}
	}

	select {
	case <-f.done:
	case <-ctx.Done():
		s.deref(f)
		s.nDeadline.Add(1)
		return api.RunRecord{}, &httpError{status: 504, msg: ctx.Err().Error()}
	}
	s.deref(f)
	if f.err != nil {
		s.nFailed.Add(1)
		return api.RunRecord{}, &httpError{status: 500, msg: f.err.Error()}
	}
	rec := f.rec
	rec.Coalesced = joined
	return rec, nil
}

// blockingEnqueue submits a freshly installed flight to the queue, blocking
// until space frees — the figure-grid fill path, where backpressure must
// queue, not reject. It aborts if the requester's ctx dies or the server
// starts draining first; the aborted flight never reached a worker and
// never will, so it is removed from the flights map and failed so that any
// coalesced joiners get an answer instead of waiting out their deadlines.
func (s *Server) blockingEnqueue(ctx context.Context, f *runFlight) *httpError {
	var herr *httpError
	select {
	case s.queue <- f:
		s.sending.Done()
		return nil
	case <-s.drain:
		herr = &httpError{status: 503, msg: "server is draining"}
	case <-ctx.Done():
		s.nDeadline.Add(1)
		herr = &httpError{status: 504, msg: ctx.Err().Error()}
	}
	s.sending.Done()
	s.mu.Lock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.mu.Unlock()
	f.err = fmt.Errorf("run was never scheduled: %s", herr.msg)
	close(f.done)
	s.deref(f)
	return herr
}

// deref drops one waiter's interest in a flight; the last one out cancels
// the flight's context so an execution nobody is waiting for stops at its
// next batch boundary, and removes the dead flight from the flights map so
// a later identical request installs a fresh one instead of coalescing onto
// a cancelled context. Cancel and removal happen under mu: a concurrent
// submit either joined before refs hit zero (no cancel) or serializes
// after and finds the key absent — refs never resurrect from zero.
func (s *Server) deref(f *runFlight) {
	s.mu.Lock()
	f.refs--
	if f.refs == 0 {
		f.cancel()
		if s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
	}
	s.mu.Unlock()
}

// worker executes queued flights until the queue is settled (Drain has
// begun and every pending enqueue has resolved) and empty.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case f := <-s.queue:
			s.runOne(f)
		case <-s.settled:
			// The queue can only shrink now: finish what's left and exit.
			for {
				select {
				case f := <-s.queue:
					s.runOne(f)
				default:
					return
				}
			}
		}
	}
}

// runOne executes one flight and publishes its outcome.
func (s *Server) runOne(f *runFlight) {
	s.nInFlight.Add(1)
	defer s.nInFlight.Add(-1)

	start := time.Now()
	rec, err := s.cfg.execute(f.ctx, f.design, f.bench, f.opt)
	wall := time.Since(start)

	f.rec, f.err = rec, err
	if err == nil {
		f.rec.ID = f.key
		f.rec.WallMS = float64(wall.Microseconds()) / 1000
		s.nExecuted.Add(1)
		s.observeWall(f.rec.WallMS)
	}
	s.mu.Lock()
	if err == nil {
		s.cache.add(f.key, f.rec)
	}
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.mu.Unlock()
	close(f.done)
}

// executeRun is the production execute hook: one simulation with the
// shared checkpoint and profile stores wired in, polling the flight's
// context at batch boundaries, its registry snapshot captured for the
// record.
func (s *Server) executeRun(ctx context.Context, d tlc.Design, bench string, opt tlc.Options) (api.RunRecord, error) {
	opt.Checkpoints = s.cfg.Checkpoints
	opt.PhaseProfiles = s.cfg.Profiles
	opt.Cancel = ctx.Err
	var snap tlc.MetricsSnapshot
	opt.OnMetrics = func(ev tlc.MetricsEvent) { snap = ev.Snapshot }
	var res tlc.Result
	var sres *tlc.SampledResult
	var err error
	if opt.Sampled() {
		var sr tlc.SampledResult
		sr, err = tlc.RunSampled(d, bench, opt)
		res, sres = sr.Result, &sr
	} else {
		res, err = tlc.Run(d, bench, opt)
	}
	if err != nil {
		return api.RunRecord{}, err
	}
	rec := api.RecordFrom(res, sres, snap, 0)
	// Embed the complete Result so remote callers reconstruct exactly what
	// this in-process run returned (the byte-identity contract).
	rec.Result = &res
	return rec, nil
}

// observeWall folds one executed run's wall time into the EWMA.
func (s *Server) observeWall(ms float64) {
	for {
		old := s.wallEWMA.Load()
		prev := math.Float64frombits(old)
		next := ms
		if prev > 0 {
			next = 0.8*prev + 0.2*ms
		}
		if s.wallEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// meanWallMS reads the wall-time EWMA.
func (s *Server) meanWallMS() float64 {
	return math.Float64frombits(s.wallEWMA.Load())
}

// retryAfterSeconds estimates when queue space will open: the backlog's
// expected drain time across the pool, floored at one second. Backlog is
// queued runs plus runs actually in flight — idle workers contribute
// nothing, so the first 429 after a quiet period (queue momentarily full,
// pool mostly idle) is not over-estimated by a full Workers × mean. With
// no executed runs yet it answers 1.
func (s *Server) retryAfterSeconds() int {
	mean := s.meanWallMS()
	if mean <= 0 {
		return 1
	}
	busy := int(s.nInFlight.Load())
	if busy > s.cfg.Workers {
		busy = s.cfg.Workers
	}
	backlog := float64(len(s.queue)+busy) * mean / float64(s.cfg.Workers)
	secs := int(math.Ceil(backlog / 1000))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Draining reports whether Drain has begun (healthz flips to 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops intake and waits for queued work to finish, bounded by ctx:
// new runs are rejected with 503, queued and executing runs complete (their
// waiters get answers), then the worker pool exits. On ctx expiry the
// remaining flights are cancelled cooperatively and Drain returns ctx's
// error once the workers notice.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already draining")
	}
	s.draining = true
	close(s.drain)
	s.mu.Unlock()

	// The queue channel is never closed — a figure-grid enqueue blocked on
	// a full queue could otherwise panic sending into it. Instead, wait for
	// the blocking enqueues admitted before draining flipped to resolve
	// (each lands in the queue or aborts on s.drain with a 503), then tell
	// the workers the queue is settled so they exit once it empties. New
	// sends register under mu while !draining, so none can start now.
	go func() {
		s.sending.Wait()
		close(s.settled)
	}()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Cut the remaining work loose: cancelling flight contexts aborts
		// executing runs at their next batch boundary.
		s.mu.Lock()
		for _, f := range s.flights {
			f.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
