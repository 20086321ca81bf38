package craft

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestBlockChunkCoversAllIterationsOnce(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		p      int
	}{
		{0, 63, 4}, {0, 63, 64}, {1, 257, 8}, {0, 6, 4}, {5, 5, 3}, {0, 2, 8},
	} {
		seen := map[int64]int{}
		for pe := 0; pe < tc.p; pe++ {
			c := BlockChunk(tc.lo, tc.hi, tc.p, pe)
			for i := c.Lo; i <= c.Hi; i++ {
				seen[i]++
			}
		}
		for i := tc.lo; i <= tc.hi; i++ {
			if seen[i] != 1 {
				t.Errorf("lo=%d hi=%d P=%d: iteration %d covered %d times", tc.lo, tc.hi, tc.p, i, seen[i])
			}
		}
		if int64(len(seen)) != tc.hi-tc.lo+1 {
			t.Errorf("lo=%d hi=%d P=%d: covered %d iterations", tc.lo, tc.hi, tc.p, len(seen))
		}
	}
}

func TestBlockChunkEmptyLoop(t *testing.T) {
	c := BlockChunk(5, 4, 4, 0)
	if !c.Empty() || c.Count() != 0 {
		t.Errorf("empty loop chunk = %+v", c)
	}
}

func TestOwnerOfIterationMatchesChunks(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lo := r.Int63n(10)
		hi := lo + r.Int63n(300)
		p := 1 + r.Intn(64)
		for i := lo; i <= hi; i++ {
			pe := OwnerOfIteration(lo, hi, p, i)
			c := BlockChunk(lo, hi, p, pe)
			if i < c.Lo || i > c.Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOwnerSlabAndWords(t *testing.T) {
	a := &ir.Array{Name: "A", Dims: []int64{256, 64}, Shared: true, Dist: ir.DistBlock}
	// 64 columns over 4 PEs: 16 columns each; column stride 256.
	for pe := 0; pe < 4; pe++ {
		slab := OwnerSlab(a, 4, pe)
		if slab.Count() != 16 || slab.Lo != int64(pe)*16 {
			t.Errorf("pe %d slab = %+v", pe, slab)
		}
		w := OwnedWords(a, 4, pe)
		if w.Lo != slab.Lo*256 || w.Hi != (slab.Hi+1)*256-1 {
			t.Errorf("pe %d words = %+v", pe, w)
		}
	}
}

func TestOwnerOfOffsetAgreesWithIndex(t *testing.T) {
	a := &ir.Array{Name: "A", Dims: []int64{8, 10}, Shared: true, Dist: ir.DistBlock}
	for off := int64(0); off < a.Size(); off++ {
		k := off / 8
		if OwnerOfOffset(a, 3, off) != OwnerOfIndex(a, 3, k) {
			t.Fatalf("offset %d: owner mismatch", off)
		}
	}
}

func TestPrivateArrayOwnedByPE0(t *testing.T) {
	a := &ir.Array{Name: "T", Dims: []int64{100}}
	if OwnerOfOffset(a, 8, 50) != 0 {
		t.Error("private array should be owned locally (PE 0 convention)")
	}
}

func TestUnevenDistributionLastPEGetsRemainder(t *testing.T) {
	// 10 items over 4 PEs: chunks of 3,3,3,1.
	counts := []int64{}
	for pe := 0; pe < 4; pe++ {
		counts = append(counts, BlockChunk(0, 9, 4, pe).Count())
	}
	want := []int64{3, 3, 3, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("chunk counts = %v, want %v", counts, want)
			break
		}
	}
}

// TestBlockOwnerMatchesOwnerOfOffset checks the one-division owner
// formula against the reference definition on random shapes, including
// last extents below and not divisible by the PE count.
func TestBlockOwnerMatchesOwnerOfOffset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := make([]int64, 1+r.Intn(3))
		for d := range dims {
			dims[d] = 1 + r.Int63n(12)
		}
		a := &ir.Array{Name: "A", Dims: dims, Shared: r.Intn(4) > 0}
		if r.Intn(4) > 0 {
			a.Dist = ir.DistBlock
		}
		p := 1 + r.Intn(70)
		block := BlockWords(a, p)
		for off := int64(0); off < a.Size(); off++ {
			if BlockOwner(block, p, off) != OwnerOfOffset(a, p, off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
