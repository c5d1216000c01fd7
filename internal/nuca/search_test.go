package nuca

import (
	"math/rand"
	"slices"
	"testing"

	"tlc/internal/mem"
	"tlc/internal/sim"
)

// fullScan is the reference bank-set search the partial-tag masks replace:
// every row's array probed in turn. It reports the row holding the block
// (-1 if none), the warm-up insertion row for a block in no row (the
// farthest row whose set would not evict), and the far-search candidates
// (rows beyond the close ones holding a line with the block's partial tag,
// or every such row when the structure is ablated away).
func fullScan(d *DNUCA, col int, local mem.Block) (row, freeRow int, cands []int) {
	row = -1
	for r := 0; r < d.p.Mesh.Rows; r++ {
		if d.banks[col][r].Array.Lookup(local) {
			row = r
			break
		}
	}
	freeRow = d.farRow()
	for r := d.farRow(); r >= 0; r-- {
		if _, evict := d.banks[col][r].Array.VictimOf(local); !evict {
			freeRow = r
			break
		}
	}
	set, pt := local.SetIndex(d.sets), local.PartialTag(d.sets)
	for r := closeRows; r < d.p.Mesh.Rows; r++ {
		if d.Abl.DisablePartialTags {
			cands = append(cands, r)
			continue
		}
		for _, ln := range d.banks[col][r].Array.AppendLinesIn(nil, set) {
			if ln.Block.PartialTag(d.sets) == pt {
				cands = append(cands, r)
				break
			}
		}
	}
	return row, freeRow, cands
}

// maskedScan is the same answer from one partial-tag scan.
func maskedScan(d *DNUCA, col int, local mem.Block) (row, freeRow int, cands []int) {
	row, match, free := d.findRow(col, local)
	for r := 0; r < d.p.Mesh.Rows; r++ {
		if d.farCandidates(match)&(1<<r) != 0 {
			cands = append(cands, r)
		}
	}
	return row, d.freeRow(free), cands
}

// TestMaskedSearchMatchesFullScan drives random warm-up installs and timed
// loads and stores through one crowded bank set, and before every step
// checks that the masked row lookup, the warm insertion row and the
// far-search candidates equal a probe of all 16 rows, under every
// combination of the DNUCA ablations.
func TestMaskedSearchMatchesFullScan(t *testing.T) {
	for _, abl := range []DNUCAAblations{
		{},
		{DisablePromotion: true},
		{DisablePartialTags: true},
		{DisablePromotion: true, DisablePartialTags: true},
	} {
		rng := rand.New(rand.NewSource(7))
		d := NewDNUCA(testMemLat)
		d.Abl = abl
		// 48 blocks share one column and set — more than its 32 ways — with
		// tags drawn so many share a partial tag: evictions, free-way
		// searches and false positives are all frequent.
		const col, set = 5, 77
		pool := make([]mem.Block, 48)
		for i := range pool {
			tag := uint64(rng.Intn(8) | rng.Intn(8)<<6)
			pool[i] = d.unlocal(mem.Block(tag*uint64(d.sets)+set), col)
		}
		var at sim.Time
		for step := 0; step < 4000; step++ {
			b := pool[rng.Intn(len(pool))]
			if d.colOf(b) != col {
				t.Fatalf("block %#x maps to column %d, want %d", b, d.colOf(b), col)
			}
			local := d.local(b)
			row, freeRow, cands := maskedScan(d, col, local)
			wantRow, wantFree, wantCands := fullScan(d, col, local)
			if row != wantRow || (row < 0 && freeRow != wantFree) || !slices.Equal(cands, wantCands) {
				t.Fatalf("%+v step %d block %#x: masked row %d free %d cands %v, full scan %d %d %v",
					abl, step, b, row, freeRow, cands, wantRow, wantFree, wantCands)
			}
			switch rng.Intn(3) {
			case 0:
				d.Warm(b)
			case 1:
				d.Access(at, mem.Request{Block: b, Type: mem.Load})
			default:
				d.Access(at, mem.Request{Block: b, Type: mem.Store})
			}
			at += sim.Time(rng.Intn(100))
		}
		if d.Searches == 0 || d.Promotions == 0 && !abl.DisablePromotion {
			t.Fatalf("%+v: sequence exercised no far search or promotion", abl)
		}
	}
}
