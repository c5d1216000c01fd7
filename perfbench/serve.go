package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlc"
	"tlc/internal/api"
	"tlc/internal/client"
	"tlc/internal/experiments"
	"tlc/internal/server"
)

// Serve-mix shape: a closed loop of workers clients over serveRequests
// requests drawn Zipf-skewed from every design x benchmark x run seed, at a
// short scale whose run seeds share one warm seed.
const (
	serveRequests  = 20_000
	serveRunSeeds  = 4
	serveWarm      = 1_000_000
	serveTimed     = 100_000
	serveZipfS     = 1.1
	requestTimeout = 60 * time.Second
	// spanHeader carries the client span to the server-side handler span,
	// so one request's spans share a trace.
	spanHeader = "X-Perfbench-Span"
)

func serveWorkload() *workload {
	return &workload{
		name:   "serve-mix",
		opNoun: "requests",
		setup: func(c *config) (unit, error) {
			u, err := newServeUnit(c)
			if err != nil {
				return nil, err
			}
			return u, nil
		},
		writeRefs: writeServeRefs,
	}
}

// serveKey is one distinct run a request can ask for.
type serveKey struct {
	req api.RunRequest
	op  string
}

// serveKeys lists every design x benchmark x run seed at workload seed ws.
// Run seeds 100*ws+i share warm seed ws, so the first run of a cell warms
// and checkpoints and the others restore.
func serveKeys(ws int64) []serveKey {
	var keys []serveKey
	for _, d := range tlc.Designs() {
		for _, b := range tlc.Benchmarks() {
			for i := int64(0); i < serveRunSeeds; i++ {
				seed := 100*ws + i
				keys = append(keys, serveKey{
					req: api.RunRequest{Design: d.String(), Benchmark: b, Options: api.RunOptions{
						WarmInstructions: serveWarm, RunInstructions: serveTimed, Seed: seed, WarmSeed: ws,
					}},
					op: fmt.Sprintf("%s/s%d", cellName(d, b), seed),
				})
			}
		}
	}
	return keys
}

// serveUnit is one cold service: a fresh tlcd with an empty checkpoint
// directory on a loopback listener, its clients, and the request list.
type serveUnit struct {
	refs       *refFile
	dir        string
	store      *tlc.CheckpointStore
	srv        *server.Server
	hs         *http.Server
	served     chan error
	base       string
	clients    []*client.Client
	transports []*http.Transport
	tr         atomic.Pointer[tracer] // set for the traced unit; read by the handler wrapper
	reqs       []serveKey
}

func newServeUnit(c *config) (*serveUnit, error) {
	refs, err := loadRefs(c.refsDir, "serve-mix", c.workloadSeed)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.outDir, "serve-ckpt-")
	if err != nil {
		return nil, err
	}
	u := &serveUnit{refs: refs, dir: dir, served: make(chan error, 1)}
	u.store = tlc.NewCheckpointStore(0, dir)
	u.srv = server.New(server.Config{Workers: workers, Checkpoints: u.store, CheckpointDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		u.srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	u.base = "http://" + ln.Addr().String()
	u.hs = &http.Server{Handler: u.handler(u.srv.Handler()), ReadHeaderTimeout: requestTimeout}
	go func() { u.served <- u.hs.Serve(ln) }()
	for i := 0; i < workers; i++ {
		// One connection per client: each waits for its reply before
		// sending the next request.
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		u.transports = append(u.transports, t)
		cl := client.New(u.base, &http.Client{Transport: spanTransport{t}})
		cl.Retries = 0 // any non-200 response counts as a failed request
		u.clients = append(u.clients, cl)
	}

	keys := serveKeys(c.workloadSeed)
	rng := rand.New(rand.NewSource(c.seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(len(keys)-1))
	u.reqs = make([]serveKey, serveRequests)
	for i := range u.reqs {
		u.reqs[i] = keys[z.Uint64()]
	}
	return u, nil
}

// handler wraps the service handler with a server.handler span per run
// request when the unit is traced.
func (u *serveUnit) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := u.tr.Load()
		if tr == nil || r.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, r)
			return
		}
		_, end := tr.start("server.handler", parseSpanRef(r.Header.Get(spanHeader)))
		h.ServeHTTP(w, r)
		end()
	})
}

// spanTransport forwards the client span in the request context as a
// header.
type spanTransport struct{ base http.RoundTripper }

type spanCtxKey struct{}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok && ref.id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d:%d", ref.trace, ref.id))
	}
	return t.base.RoundTrip(r)
}

func parseSpanRef(h string) spanRef {
	tr, id, ok := strings.Cut(h, ":")
	if !ok {
		return spanRef{}
	}
	t, err1 := strconv.ParseUint(tr, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{id: i, trace: t}
}

func (u *serveUnit) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	u.hs.Shutdown(ctx)
	<-u.served
	u.srv.Drain(ctx)
	for _, t := range u.transports {
		t.CloseIdleConnections()
	}
	os.RemoveAll(u.dir)
}

// served is one completed request.
type served struct {
	lat    time.Duration
	failed string
	hit    bool
	// snap is kept only for responses that executed (not cached, not
	// coalesced): each distinct run's registry counted once.
	snap  tlc.MetricsSnapshot
	instr uint64
}

func (u *serveUnit) run(tr *tracer) (*outcome, error) {
	u.tr.Store(tr)
	out := make([]served, len(u.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range u.clients {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(u.reqs) {
					return
				}
				k := u.reqs[i]
				ref, end := tr.start("client.request", spanRef{})
				ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), spanCtxKey{}, ref), requestTimeout)
				t0 := time.Now()
				rec, err := cl.Run(ctx, k.req)
				out[i].lat = time.Since(t0)
				cancel()
				end()
				out[i].check(u.refs, k.op, rec, err)
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(start)

	o := &outcome{wall: wall, attempted: len(out), counts: map[string]float64{}, extra: map[string]float64{}}
	var snaps []tlc.MetricsSnapshot
	for _, s := range out {
		o.latencies = append(o.latencies, s.lat)
		if s.failed != "" {
			o.failures = append(o.failures, s.failed)
			continue
		}
		if s.hit {
			o.hits = append(o.hits, s.lat)
		} else {
			o.execs = append(o.execs, s.lat)
		}
		if s.snap != nil {
			snaps = append(snaps, s.snap)
			o.counts["cpu.timed_instructions"] += float64(s.instr)
		}
	}
	sumRegistry(o.counts, snaps)
	if err := u.serverCounts(o.counts); err != nil {
		return nil, err
	}
	snapshotCounts(o.counts, u.store.Stats())
	if len(o.hits) > 0 {
		o.extra["hit_p50_ms"] = percentile(millis(o.hits), 50)
	}
	if len(o.execs) > 0 {
		o.extra["exec_p50_ms"] = percentile(millis(o.execs), 50)
	}
	o.extra["hit_fraction"] = float64(len(o.hits)) / float64(len(out))
	return o, nil
}

// check classifies and verifies one response against the reference.
func (s *served) check(refs *refFile, op string, rec api.RunRecord, err error) {
	if err != nil {
		s.failed = fmt.Sprintf("%s: %v", op, err)
		return
	}
	if f := refs.check(op, cellRef{Cycles: rec.Cycles, IPC: rec.IPC, Digest: digest(rec.Metrics)}); f != "" {
		s.failed = f
		return
	}
	s.hit = rec.Cached
	if !rec.Cached && !rec.Coalesced {
		s.snap = rec.Metrics
		if rec.Result != nil {
			s.instr = rec.Result.Instructions
		}
	}
}

// serverCounts reads tlcd's /metricz into the per-layer counts.
func (u *serveUnit) serverCounts(counts map[string]float64) error {
	hc := &http.Client{Transport: u.transports[0]}
	resp, err := hc.Get(u.base + "/metricz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metricz: status %d", resp.StatusCode)
	}
	var snap tlc.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("/metricz: %w", err)
	}
	get := func(name string) float64 {
		v, ok := snap.Value(name)
		if !ok && err == nil {
			err = fmt.Errorf("/metricz has no %s", name)
		}
		return v
	}
	for _, name := range []string{"cache_hits", "coalesced", "executed", "rejected", "failed"} {
		counts["server.runs."+name] = get("server.runs." + name)
	}
	if req := get("server.runs.requested"); req > 0 {
		counts["server.hit_ratio"] = counts["server.runs.cache_hits"] / req
	}
	counts["sim.lanes.batches_shared"] = get("sim.lanes.batches_shared")
	counts["sim.lanes.lanes_warmed"] = get("sim.lanes.lanes_warmed")
	counts["sim.lanes.scalar_points"] = get("sim.lanes.scalar_points")
	return err
}

// writeServeRefs computes every serve-mix key in-process — the service's
// records are bit-identical to in-process runs — and writes the reference
// file.
func writeServeRefs(c *config) error {
	rf := &refFile{Workload: "serve-mix", WorkloadSeed: c.workloadSeed, Cells: map[string]cellRef{}}
	store := tlc.NewCheckpointStore(gridCells, "")
	keys := serveKeys(c.workloadSeed)
	for i := int64(0); i < serveRunSeeds; i++ {
		opt := keys[i].req.Options.Options()
		opt.Checkpoints = store
		suite := experiments.NewSuite(opt)
		// The service warms each run scalar (no lane phase), so its
		// registries carry no lane-restore provenance counter.
		suite.NoLanes = true
		if err := suite.RunAll(tlc.Designs(), tlc.Benchmarks(), workers); err != nil {
			return err
		}
		for _, k := range keys {
			if k.req.Options.Seed != opt.Seed {
				continue
			}
			d, err := api.ParseDesign(k.req.Design)
			if err != nil {
				return err
			}
			res, err := suite.RunErr(d, k.req.Benchmark)
			if err != nil {
				return err
			}
			snap, ok := suite.RunMetrics(d, k.req.Benchmark)
			if !ok {
				return errors.New(k.op + ": no metrics")
			}
			rf.Cells[k.op] = cellRef{Cycles: res.Cycles, IPC: res.IPC, Digest: digest(snap)}
		}
	}
	return rf.save(c.refsDir)
}
