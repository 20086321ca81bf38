package mem

import (
	"testing"

	"repro/internal/craft"
	"repro/internal/ir"
)

func TestLayoutAlignsToLines(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 10, 6)
	tp := b.Array("T", 7)
	c := b.SharedArray("B", 8)
	b.Routine("main", ir.Set(ir.At(tp, ir.K(0)), ir.N(0)))
	p := b.Build()
	total := Layout(p, 4)
	if a.Base%4 != 0 || tp.Base%4 != 0 || c.Base%4 != 0 {
		t.Errorf("bases not line aligned: %d %d %d", a.Base, tp.Base, c.Base)
	}
	if a.Base != 0 || tp.Base != 64 || c.Base != 76 {
		t.Errorf("bases = %d %d %d", a.Base, tp.Base, c.Base)
	}
	if total != 88 {
		t.Errorf("total = %d", total)
	}
}

func TestMemoryReadWriteGenerations(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 16)
	b.Routine("main", ir.Set(ir.At(a, ir.K(0)), ir.N(0)))
	p := b.Build()
	total := Layout(p, 4)
	m := New(p, 4, total)

	addr := AddrOf(a, []int64{5})
	if v, g := m.Read(addr); v != 0 || g != 0 {
		t.Errorf("initial read = %v gen %d", v, g)
	}
	if g := m.Write(addr, 3.5); g != 1 {
		t.Errorf("gen after write = %d", g)
	}
	if v, g := m.Read(addr); v != 3.5 || g != 1 {
		t.Errorf("read after write = %v gen %d", v, g)
	}
	m.Write(addr, 4.5)
	if m.Gen(addr) != 2 {
		t.Errorf("gen = %d", m.Gen(addr))
	}
}

func TestOwnerAndArrayLookup(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 8, 8) // 64 words, 8 cols over 4 PEs: 2 cols each
	tp := b.Array("T", 4)
	b.Routine("main", ir.Set(ir.At(tp, ir.K(0)), ir.N(0)))
	p := b.Build()
	total := Layout(p, 4)
	m := New(p, 4, total)

	if m.ArrayOf(0) != a || m.ArrayOf(63) != a || m.ArrayOf(68) != tp {
		t.Error("ArrayOf wrong")
	}
	if m.ArrayOf(64) != nil {
		t.Error("padding word attributed to an array")
	}
	if m.ArrayOf(total) != nil {
		t.Error("ArrayOf out of range should be nil")
	}
	// Column k (stride 8) belongs to PE k/2.
	for k := int64(0); k < 8; k++ {
		addr := AddrOf(a, []int64{3, k})
		if got := m.OwnerOf(addr); got != int(k/2) {
			t.Errorf("col %d owner = %d, want %d", k, got, k/2)
		}
	}
	// Private array owned by PE 0.
	if m.OwnerOf(AddrOf(tp, []int64{1})) != 0 {
		t.Error("private array not owned by 0")
	}
}

func TestArrayDataView(t *testing.T) {
	b := ir.NewBuilder("m")
	a := b.SharedArray("A", 4)
	b.Routine("main", ir.Set(ir.At(a, ir.K(0)), ir.N(0)))
	p := b.Build()
	m := New(p, 2, Layout(p, 4))
	m.Write(AddrOf(a, []int64{2}), 9)
	if d := m.ArrayData(a); len(d) != 4 || d[2] != 9 {
		t.Errorf("ArrayData = %v", d)
	}
}

func TestAddrOfBoundsPanic(t *testing.T) {
	a := &ir.Array{Name: "A", Dims: []int64{4}}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range AddrOf did not panic")
		}
	}()
	AddrOf(a, []int64{4})
}

// TestOwnerOfMatchesOwnerOfOffset checks the precomputed block division
// against craft's reference definition on every word address of several
// layouts (plus padding, negative and past-the-end addresses) at PE counts
// that divide, fail to divide and exceed the distributed extents.
func TestOwnerOfMatchesOwnerOfOffset(t *testing.T) {
	shared := func(name string, dims ...int64) *ir.Array {
		return &ir.Array{Name: name, Dims: dims, Shared: true, Dist: ir.DistBlock}
	}
	layouts := map[string][]*ir.Array{
		"1-D": {
			shared("A", 100),
			shared("Small", 3), // last extent below most PE counts
			{Name: "Priv", Dims: []int64{7}},
			shared("B", 64),
		},
		"3-D": {
			shared("A", 4, 3, 10), // last extent divisible by few PE counts
			{Name: "SharedNone", Dims: []int64{2, 2, 5}, Shared: true},
			{Name: "BlockPriv", Dims: []int64{5, 9}, Dist: ir.DistBlock},
			shared("C", 3, 1, 1), // last extent 1
			shared("D", 2, 3, 65),
		},
	}
	for name, arrays := range layouts {
		for _, lineWords := range []int64{4, 8} {
			p := &ir.Program{Arrays: arrays}
			total := Layout(p, lineWords)
			for _, n := range []int{1, 2, 3, 5, 7, 8, 16, 64} {
				m := New(p, n, total)
				for addr := int64(-2); addr < total+2*lineWords; addr++ {
					var want *ir.Array
					for _, a := range arrays {
						if addr >= a.Base && addr < a.Base+a.Size() {
							want = a
						}
					}
					if got := m.ArrayOf(addr); got != want {
						t.Fatalf("%s line %d P=%d: ArrayOf(%d) = %v, want %v", name, lineWords, n, addr, got, want)
					}
					owner := 0
					if want != nil {
						owner = craft.OwnerOfOffset(want, n, addr-want.Base)
					}
					if got := m.OwnerOf(addr); got != owner {
						t.Fatalf("%s line %d P=%d: OwnerOf(%d) = %d, want %d", name, lineWords, n, addr, got, owner)
					}
				}
			}
		}
	}
}
