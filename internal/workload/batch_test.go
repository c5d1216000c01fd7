package workload

import (
	"testing"

	"tlc/internal/cpu"
)

// TestNextBatchMatchesNext pins the batched delivery path bit-identical to
// scalar Next: same instructions, same post-call stream state, same
// observation counters — including when batch sizes vary and when scalar and
// batched delivery interleave mid-stream.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			scalar := New(spec, 7)
			batched := New(spec, 7)
			sizes := []int{1, 3, 64, 1000, 4096}
			buf := make([]cpu.Instr, 4096)
			pos := 0
			for round := 0; round < 40; round++ {
				n := sizes[round%len(sizes)]
				if got := batched.NextBatch(buf[:n]); got != n {
					t.Fatalf("NextBatch(%d) = %d", n, got)
				}
				for i := 0; i < n; i++ {
					want := scalar.Next()
					if buf[i] != want {
						t.Fatalf("instr %d: batched %+v != scalar %+v", pos+i, buf[i], want)
					}
				}
				pos += n
				// Interleave a stretch of scalar delivery on the batched
				// generator: the protocols must be freely mixable.
				for i := 0; i < 17; i++ {
					want := scalar.Next()
					if got := batched.Next(); got != want {
						t.Fatalf("interleaved instr: batched %+v != scalar %+v", got, want)
					}
				}
				pos += 17
			}
			if scalar.State() != batched.State() {
				t.Fatalf("stream state diverged: scalar %+v batched %+v", scalar.State(), batched.State())
			}
			if scalar.counters != batched.counters {
				t.Fatalf("counters diverged: scalar %+v batched %+v", scalar.counters, batched.counters)
			}
		})
	}
}

// TestNextMemsMatchesNext pins the warm fast path bit-identical to scalar
// delivery: the materialized memory operations match the IsMem instructions
// of the scalar stream in order, the skipped non-memory runs advance the RNG
// identically (post-call State equality proves it), and the observation
// counters agree.
func TestNextMemsMatchesNext(t *testing.T) {
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			scalar := New(spec, 11)
			fast := New(spec, 11)
			buf := make([]cpu.MemRef, 257)
			var consumedTotal uint64
			const total = 300_000
			for consumedTotal < total {
				n, consumed := fast.NextMems(buf, total-consumedTotal)
				if consumed == 0 {
					t.Fatal("NextMems made no progress")
				}
				consumedTotal += consumed
				// The scalar arm replays the same instruction span.
				got := 0
				for i := uint64(0); i < consumed; i++ {
					in := scalar.Next()
					if !in.IsMem {
						continue
					}
					if got >= n {
						t.Fatalf("scalar stream has more mem ops than NextMems reported (%d)", n)
					}
					if buf[got].Block != in.Block || buf[got].Store != in.IsStore {
						t.Fatalf("mem op %d: fast {%d %v} != scalar {%d %v}",
							got, buf[got].Block, buf[got].Store, in.Block, in.IsStore)
					}
					got++
				}
				if got != n {
					t.Fatalf("NextMems reported %d mem ops, scalar span has %d", n, got)
				}
				if scalar.State() != fast.State() {
					t.Fatalf("stream state diverged after %d instructions", consumedTotal)
				}
			}
			// Mispredict/memOp/store counters must match; the region counters
			// advance inside nextBlock on both paths.
			if scalar.counters != fast.counters {
				t.Fatalf("counters diverged: scalar %+v fast %+v", scalar.counters, fast.counters)
			}
			// After a warm stretch, detailed delivery must continue
			// seamlessly on both generators.
			for i := 0; i < 10_000; i++ {
				if got, want := fast.Next(), scalar.Next(); got != want {
					t.Fatalf("post-warm instr %d: %+v != %+v", i, got, want)
				}
			}
		})
	}
}

// TestNextBatchDoesNotAllocate pins batched delivery at zero allocations per
// call at steady state, for both the detailed and the warm-mode entry
// points.
func TestNextBatchDoesNotAllocate(t *testing.T) {
	spec, _ := SpecByName("oltp")
	g := New(spec, 3)
	buf := make([]cpu.Instr, 4096)
	mems := make([]cpu.MemRef, 2048)
	g.NextBatch(buf)
	g.NextMems(mems, 1<<20)
	if allocs := testing.AllocsPerRun(20, func() { g.NextBatch(buf) }); allocs != 0 {
		t.Errorf("NextBatch allocates %.2f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { g.NextMems(mems, 1<<20) }); allocs != 0 {
		t.Errorf("NextMems allocates %.2f per call, want 0", allocs)
	}
}

// BenchmarkStreamViews reports the cost per instruction of each stream
// view on every spec: NextBatch filling a 4096-instruction buffer (the
// detailed runs' delivery) and NextMems consuming 4096 instructions into a
// 512-reference buffer (the functional warm-up's delivery).
func BenchmarkStreamViews(b *testing.B) {
	const instrs = 4096
	for _, spec := range Specs() {
		b.Run("NextBatch/"+spec.Name, func(b *testing.B) {
			g := New(spec, 1)
			buf := make([]cpu.Instr, instrs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.NextBatch(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
		})
		b.Run("NextMems/"+spec.Name, func(b *testing.B) {
			g := New(spec, 1)
			buf := make([]cpu.MemRef, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for left := uint64(instrs); left > 0; {
					_, consumed := g.NextMems(buf, left)
					left -= consumed
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
		})
	}
}

// FuzzGeneratorViews drives one generator through a fuzzed sequence of
// Next, NextBatch and NextMems calls of fuzzed sizes and checks every call
// against a scalar reference advanced over the same instructions: the
// detailed views must deliver the same instructions, the warm view the
// same memory operations, and after every call both generators must agree
// on State and the observation counters. The spec comes from the fuzzed
// parameters, reaching the branches no shipped spec takes: cold-region
// skew, regions of at most five blocks (where the 80/20 narrowing stops
// early), odd and power-of-two mispredict periods, and the sliding cold
// window on and off.
func FuzzGeneratorViews(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint16(40), uint16(300), uint16(900), uint16(0), uint16(1), []byte{0, 9, 1, 200, 2, 50, 1, 7})
	f.Add(int64(2), uint8(2), uint8(3), uint16(3), uint16(5), uint16(4), uint16(3), uint16(64), []byte{2, 255, 0, 3, 1, 1, 2, 0})
	f.Add(int64(3), uint8(0), uint8(2), uint16(1), uint16(2), uint16(5), uint16(0), uint16(7), []byte{1, 128, 2, 10, 0, 30})
	f.Add(int64(4), uint8(3), uint8(1), uint16(100), uint16(4000), uint16(20000), uint16(64), uint16(0), []byte{2, 90, 1, 255, 2, 255, 0, 200})
	f.Add(int64(5), uint8(1), uint8(1), uint16(5), uint16(5), uint16(2), uint16(0), uint16(251), []byte{1, 40, 2, 40, 1, 40})
	f.Fuzz(func(t *testing.T, seed int64, hotSkew, coldSkew uint8, l1, hot, cold, window, every uint16, ops []byte) {
		// Fractions come from the seed so the fuzzer's numeric mutations
		// stay on the region sizes and periods.
		// The fractions come from the seed; the fuzzed integers set the
		// region sizes, skew levels and mispredict period.
		r := newPRNG(seed)
		mb := func(blocks uint16) float64 { return float64(blocks) / blocksPerMB }
		spec := Spec{
			Name:            "fuzz",
			L1MB:            mb(l1 % 4096),
			L1Frac:          r.Float64() / 2,
			HotMB:           mb(hot % 8192),
			HotFrac:         r.Float64() / 4,
			HotSkew:         int(hotSkew % 4),
			StreamFrac:      r.Float64() / 4,
			StreamRepeat:    r.Intn(10),
			RecentFrac:      r.Float64() / 8,
			ColdSkew:        int(coldSkew % 4),
			ColdTurnover:    r.Float64(),
			StoreFrac:       r.Float64(),
			MemFrac:         r.Float64(),
			DepFrac:         r.Float64(),
			SerialFrac:      r.Float64(),
			MispredictEvery: int(every % 1025),
		}
		spec.FootprintMB = spec.L1MB + spec.HotMB + mb(cold%20000+1)
		if window%3 != 0 {
			spec.ColdWindowMB = mb(window)
		}
		ref, g := New(spec, seed), New(spec, seed)
		instrs := make([]cpu.Instr, 256)
		mems := make([]cpu.MemRef, 64)
		for i := 0; i+1 < len(ops) && i < 128; i += 2 {
			size := int(ops[i+1]) + 1
			switch ops[i] % 3 {
			case 0:
				if got, want := g.Next(), ref.Next(); got != want {
					t.Fatalf("op %d Next: %+v, want %+v", i/2, got, want)
				}
			case 1:
				n := size % len(instrs)
				if got := g.NextBatch(instrs[:n]); got != n {
					t.Fatalf("op %d: NextBatch(%d) = %d", i/2, n, got)
				}
				for j, in := range instrs[:n] {
					if want := ref.Next(); in != want {
						t.Fatalf("op %d NextBatch instr %d: %+v, want %+v", i/2, j, in, want)
					}
				}
			case 2:
				buf := mems[:size%len(mems)+1]
				n, consumed := g.NextMems(buf, uint64(size)*4)
				if consumed == 0 || consumed > uint64(size)*4 || (n < len(buf) && consumed != uint64(size)*4) {
					t.Fatalf("op %d: NextMems(%d refs, %d instrs) = %d refs, %d instrs", i/2, len(buf), size*4, n, consumed)
				}
				got := 0
				for j := uint64(0); j < consumed; j++ {
					in := ref.Next()
					if !in.IsMem {
						continue
					}
					if got >= n || buf[got] != (cpu.MemRef{Block: in.Block, Store: in.IsStore}) {
						t.Fatalf("op %d NextMems ref %d of %d: differs from scalar %+v", i/2, got, n, in)
					}
					got++
				}
				if got != n {
					t.Fatalf("op %d: NextMems wrote %d refs, scalar span has %d", i/2, n, got)
				}
			}
			if g.State() != ref.State() {
				t.Fatalf("op %d: state %+v, want %+v", i/2, g.State(), ref.State())
			}
			if g.counters != ref.counters {
				t.Fatalf("op %d: counters %+v, want %+v", i/2, g.counters, ref.counters)
			}
		}
	})
}
