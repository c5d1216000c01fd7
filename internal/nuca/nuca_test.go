package nuca

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tlc/internal/mem"
	"tlc/internal/sim"
)

const testMemLat = 300

// mkBlock builds a block that maps to the given bank/group/column target
// under the FoldHash bank selection, with the given local id (which fixes
// set and tag).
func mkBlock(target int, local mem.Block, bits int) mem.Block {
	low := uint64(target) ^ mem.FoldHash(uint64(local), bits)
	return local<<uint(bits) | mem.Block(low)
}

func TestSNUCANominalRangeMatchesTable2(t *testing.T) {
	s := NewSNUCA(testMemLat)
	min, max := s.NominalRange()
	if min != 9 || max != 32 {
		t.Fatalf("SNUCA2 uncontended range %d-%d, want 9-32", min, max)
	}
}

func TestDNUCANominalRangeMatchesTable2(t *testing.T) {
	d := NewDNUCA(testMemLat)
	min, max := d.NominalRange()
	if min != 3 || max != 47 {
		t.Fatalf("DNUCA uncontended range %d-%d, want 3-47", min, max)
	}
}

func TestSNUCAMissThenHit(t *testing.T) {
	s := NewSNUCA(testMemLat)
	b := mem.Block(0x1234)
	out := s.Access(0, mem.Request{Block: b, Type: mem.Load})
	if out.Hit {
		t.Fatal("cold access hit")
	}
	delta := int64(out.CompleteAt) - int64(out.ResolveAt)
	if delta < testMemLat-16 || delta > testMemLat+16 {
		t.Fatalf("miss completion %d, want resolve+%d+/-16", out.CompleteAt, testMemLat)
	}
	if !s.Contains(b) {
		t.Fatal("fill did not install the block")
	}
	out2 := s.Access(out.CompleteAt+100, mem.Request{Block: b, Type: mem.Load})
	if !out2.Hit {
		t.Fatal("second access missed")
	}
	if out2.CompleteAt != out2.ResolveAt {
		t.Fatal("hit completion should equal resolution")
	}
}

func TestSNUCAHitLatencyIsNominalWhenUncontended(t *testing.T) {
	s := NewSNUCA(testMemLat)
	b := mem.Block(0x77)
	s.Warm(b)
	out := s.Access(1000, mem.Request{Block: b, Type: mem.Load})
	if !out.Hit {
		t.Fatal("warmed block missed")
	}
	if got := out.ResolveAt - 1000; got != s.Nominal(b) {
		t.Fatalf("uncontended hit latency %d, want nominal %d", got, s.Nominal(b))
	}
	if !out.Predictable {
		t.Fatal("uncontended hit should be predictable")
	}
}

func TestSNUCABankContentionBreaksPredictability(t *testing.T) {
	s := NewSNUCA(testMemLat)
	// Two blocks in the same bank (under the XOR bank hash), accessed
	// simultaneously: the second queues behind the first at the bank port.
	a := mem.Block(0)    // hash(0) = bank 0
	b := mem.Block(0x21) // hash(33) = (33 ^ 1) & 31 = bank 0
	s.Warm(a)
	s.Warm(b)
	outA := s.Access(500, mem.Request{Block: a, Type: mem.Load})
	outB := s.Access(500, mem.Request{Block: b, Type: mem.Load})
	if !outA.Predictable {
		t.Fatal("first access should be at nominal")
	}
	if outB.Predictable {
		t.Fatal("queued access should be unpredictable")
	}
	if outB.ResolveAt <= outA.ResolveAt {
		t.Fatal("queued access should resolve later")
	}
}

func TestSNUCAStoreIsFireAndForget(t *testing.T) {
	s := NewSNUCA(testMemLat)
	b := mem.Block(0x99)
	out := s.Access(10, mem.Request{Block: b, Type: mem.Store})
	if out.CompleteAt != 10 {
		t.Fatal("store should complete immediately for the processor")
	}
	if !s.Contains(b) {
		t.Fatal("store did not install the block")
	}
	if s.Stores.Value() != 1 || s.Loads.Value() != 0 {
		t.Fatal("store accounting wrong")
	}
}

func TestSNUCAWritebackOnEviction(t *testing.T) {
	s := NewSNUCA(testMemLat)
	// Fill one set (4 ways) of bank 0 and overflow it.
	var at sim.Time
	for i := 0; i < 5; i++ {
		b := mkBlock(0, mem.Block(i)<<11, 5) // bank 0, set 0, distinct tags
		s.Access(at, mem.Request{Block: b, Type: mem.Store})
		at += 100
	}
	if s.Writebacks != 1 {
		t.Fatalf("writebacks %d, want 1", s.Writebacks)
	}
}

// rowOf reports the row holding the column-local block, or -1.
func rowOf(d *DNUCA, col int, local mem.Block) int {
	row, _, _ := d.findRow(col, local)
	return row
}

func TestDNUCAInsertsAtFarBank(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x100)
	out := d.Access(0, mem.Request{Block: b, Type: mem.Load})
	if out.Hit {
		t.Fatal("cold access hit")
	}
	col := d.colOf(b)
	if got := rowOf(d, col, d.local(b)); got != d.farRow() {
		t.Fatalf("fill landed in row %d, want far row %d", got, d.farRow())
	}
	if d.Insertions.Value() != 1 {
		t.Fatal("insertion not counted")
	}
}

func TestDNUCAPromotionOnHit(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x100)
	d.Warm(b) // inserts at far row
	col := d.colOf(b)
	startRow := rowOf(d, col, d.local(b))
	if startRow != d.farRow() {
		t.Fatalf("warm insert at row %d, want %d", startRow, d.farRow())
	}
	out := d.Access(1000, mem.Request{Block: b, Type: mem.Load})
	if !out.Hit {
		t.Fatal("resident block missed")
	}
	if got := rowOf(d, col, d.local(b)); got != startRow-1 {
		t.Fatalf("block at row %d after hit, want promoted to %d", got, startRow-1)
	}
	if d.Promotions.Value() != 1 {
		t.Fatal("promotion not counted")
	}
}

func TestDNUCABlockMigratesToClosestBank(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x42)
	d.Warm(b)
	// Repeated hits walk the block one row closer each time.
	at := sim.Time(0)
	for i := 0; i < 20; i++ {
		at += 10000
		d.Access(at, mem.Request{Block: b, Type: mem.Load})
	}
	if got := rowOf(d, d.colOf(b), d.local(b)); got != 0 {
		t.Fatalf("hot block at row %d after 20 hits, want 0", got)
	}
	// Hits at row 0 are close hits at minimal latency.
	out := d.Access(at+10000, mem.Request{Block: b, Type: mem.Load})
	if !out.Predictable || !out.Hit {
		t.Fatal("row-0 uncontended hit should be a predictable close hit")
	}
}

func TestDNUCACloseHitCounting(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x42)
	// Walk the block to row 0.
	d.Warm(b)
	for i := 0; i < 20; i++ {
		d.Warm(b)
	}
	before := d.CloseHits.Value()
	d.Access(0, mem.Request{Block: b, Type: mem.Load})
	if d.CloseHits.Value() != before+1 {
		t.Fatal("close hit not counted")
	}
}

func TestDNUCAFarHitIsSearchedAndUnpredictable(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x42)
	d.Warm(b) // at far row: beyond the close banks
	out := d.Access(0, mem.Request{Block: b, Type: mem.Load})
	if !out.Hit {
		t.Fatal("far block missed")
	}
	if out.Predictable {
		t.Fatal("a searched far hit must be unpredictable")
	}
	if out.BanksAccessed < 3 {
		t.Fatalf("far hit touched %d banks, want close 2 + candidates", out.BanksAccessed)
	}
	if d.Searches.Value() != 1 {
		t.Fatal("search not counted")
	}
}

func TestDNUCAFastMiss(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x5000)
	out := d.Access(0, mem.Request{Block: b, Type: mem.Load})
	if out.Hit {
		t.Fatal("cold access hit")
	}
	if d.FastMisses.Value() != 1 {
		t.Fatal("empty cache miss should be a fast miss")
	}
	if !out.Predictable {
		t.Fatal("uncontended fast miss resolves at its nominal latency")
	}
	if got := out.ResolveAt - 0; got != d.nominalFastMiss(d.colOf(b)) {
		t.Fatalf("fast miss latency %d, want nominal %d", got, d.nominalFastMiss(d.colOf(b)))
	}
}

func TestDNUCAPartialTagFalsePositiveSearch(t *testing.T) {
	d := NewDNUCA(testMemLat)
	// Two blocks in the same column and set whose tags collide in the low
	// 6 bits: per-column locals have 9 set bits, so the tag starts at
	// local bit 9. Tags 0x40 and 0x80 share partial tag 0.
	a := mkBlock(0, mem.Block(0x40)<<9, 4)
	b := mkBlock(0, mem.Block(0x80)<<9, 4)
	d.Warm(a)
	// b is absent; its lookup sees a's partial tag at the far bank and
	// must search it, discovering a false positive.
	out := d.Access(0, mem.Request{Block: b, Type: mem.Load})
	if out.Hit {
		t.Fatal("false positive treated as hit")
	}
	if d.Searches.Value() != 1 {
		t.Fatal("false-positive candidates should trigger a search")
	}
	if out.Predictable {
		t.Fatal("searched miss must be unpredictable")
	}
}

func TestDNUCAStoreWritesInPlace(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x42)
	d.Warm(b)
	row := rowOf(d, d.colOf(b), d.local(b))
	d.Access(0, mem.Request{Block: b, Type: mem.Store})
	if got := rowOf(d, d.colOf(b), d.local(b)); got != row {
		t.Fatal("store should not migrate the block")
	}
	if d.Promotions.Value() != 0 {
		t.Fatal("stores must not promote")
	}
}

func TestDNUCAStoreMissAllocates(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x9999)
	d.Access(0, mem.Request{Block: b, Type: mem.Store})
	if !d.Contains(b) {
		t.Fatal("store miss did not allocate")
	}
}

func TestDNUCAWritebackOnSetOverflow(t *testing.T) {
	d := NewDNUCA(testMemLat)
	// Fill the far bank's set 0 of column 0 (2 ways) and overflow it.
	var at sim.Time
	for i := 1; i <= 3; i++ {
		b := mkBlock(0, mem.Block(i)<<9, 4) // col 0, set 0, distinct tags
		d.Access(at, mem.Request{Block: b, Type: mem.Load})
		at += 2000
	}
	if d.Writebacks.Value() != 1 {
		t.Fatalf("writebacks %d, want 1 after overflowing a 2-way far set", d.Writebacks.Value())
	}
}

func TestDNUCAPromotesPerInsert(t *testing.T) {
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x42)
	d.Access(0, mem.Request{Block: b, Type: mem.Load}) // insert
	d.Access(5000, mem.Request{Block: b, Type: mem.Load})
	d.Access(10000, mem.Request{Block: b, Type: mem.Load})
	if got := d.PromotesPerInsert(); got != 2 {
		t.Fatalf("promotes/inserts %v, want 2", got)
	}
}

// Property: DNUCA never loses or duplicates a block across random load and
// store traffic — every warmed or accessed block is resident in exactly
// one row of its column, and the partial tags never produce a false
// negative for it.
func TestQuickDNUCAResidencyInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDNUCA(testMemLat)
		var at sim.Time
		// Narrow address pool to force set conflicts and promotions.
		pool := make([]mem.Block, 24)
		for i := range pool {
			pool[i] = mem.Block(rng.Intn(4)<<13 | rng.Intn(2)<<4 | rng.Intn(2))
		}
		for step := 0; step < 150; step++ {
			b := pool[rng.Intn(len(pool))]
			typ := mem.Load
			if rng.Intn(3) == 0 {
				typ = mem.Store
			}
			d.Access(at, mem.Request{Block: b, Type: typ})
			at += sim.Time(rng.Intn(200))
			// Invariant: the just-accessed block is resident exactly once.
			col := d.colOf(b)
			local := d.local(b)
			count := 0
			for r := 0; r < d.p.Mesh.Rows; r++ {
				if d.banks[col][r].Array.Lookup(local) {
					count++
					if match, _ := d.ptags[col].Masks(local); match&(1<<r) == 0 {
						return false // partial tag false negative
					}
				}
			}
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSNUCAStatsAccounting(t *testing.T) {
	s := NewSNUCA(testMemLat)
	s.Access(0, mem.Request{Block: 1, Type: mem.Load})     // miss
	s.Access(1000, mem.Request{Block: 1, Type: mem.Load})  // hit
	s.Access(2000, mem.Request{Block: 2, Type: mem.Store}) // store
	if s.Loads.Value() != 2 || s.Stores.Value() != 1 {
		t.Fatal("request counts wrong")
	}
	// The store allocated an absent block: it counts as a miss too.
	if s.Hits.Value() != 1 || s.Misses.Value() != 2 {
		t.Fatal("outcome counts wrong")
	}
	if s.Lookup.Count() != 2 {
		t.Fatal("lookup histogram should record loads only")
	}
	if s.BanksPerRequest() != 1 {
		t.Fatalf("SNUCA banks/request %v, want 1", s.BanksPerRequest())
	}
}

func TestDNUCABanksPerRequestAtLeastTwoForLoads(t *testing.T) {
	d := NewDNUCA(testMemLat)
	for i := 0; i < 10; i++ {
		d.Access(sim.Time(i*1000), mem.Request{Block: mem.Block(i * 64), Type: mem.Load})
	}
	if got := d.BanksPerRequest(); got < 2 {
		t.Fatalf("DNUCA loads probe the two close banks: banks/request %v", got)
	}
}

func TestDNUCAWarmPromotionKeepsPartialTagsInSync(t *testing.T) {
	// Regression: accelerated warm promotion (row -> row/2) must resync
	// the partial tags of the destination row, or a resident mid-row
	// block becomes invisible to the search and fast-misses.
	d := NewDNUCA(testMemLat)
	b := mem.Block(0x584a)
	d.Warm(b) // insert far
	d.Warm(b) // promote toward the controller
	d.Warm(b)
	if !d.Contains(b) {
		t.Fatal("warmed block not resident")
	}
	out := d.Access(0, mem.Request{Block: b, Type: mem.Load})
	if !out.Hit {
		t.Fatal("resident mid-row block missed: partial tags out of sync")
	}
}
