package exec

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// compiledRefs collects every array reference site of a compiled program.
func compiledRefs(cp *cProgram) []*cRef {
	var refs []*cRef
	seen := map[*[]cStmt]bool{}
	add := func(r *cRef) {
		if !r.isScalar() {
			refs = append(refs, r)
		}
	}
	var expr func(cExpr)
	expr = func(e cExpr) {
		switch x := e.(type) {
		case *cLoad:
			add(x.ref)
		case *cBin:
			expr(x.l)
			expr(x.r)
		case *cUn:
			expr(x.x)
		}
	}
	var stmts func([]cStmt)
	stmts = func(ss []cStmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *cLoop:
				stmts(st.prologue)
				stmts(st.body)
				for _, pp := range st.pipelined {
					add(pp.target)
				}
			case *cAssign:
				add(st.lhs)
				expr(st.rhs)
			case *cIf:
				expr(st.l)
				expr(st.r)
				stmts(st.then)
				stmts(st.els)
			case *cCall:
				if st.body != nil && !seen[st.body] {
					seen[st.body] = true
					stmts(*st.body)
				}
			case *cPrefetch:
				add(st.target)
			case *cVP:
				add(st.target)
			}
		}
	}
	for _, n := range cp.nodes {
		if n.loop != nil {
			stmts([]cStmt{n.loop})
		}
		stmts(n.stmts)
	}
	return refs
}

// TestRefHomeMatchesMemOwner checks that the home PE a compiled reference
// derives from its precomputed block (peState.homeOf, the readMem and
// writeRef path) equals mem.OwnerOf for every address the reference can
// produce, across the workloads, both software modes (CCDP adds prefetch
// and vector-prefetch targets) and PE counts that do and do not divide
// the distributed extents.
func TestRefHomeMatchesMemOwner(t *testing.T) {
	progs := []*ir.Program{stencilProg(37, 1), spProg()}
	for _, s := range workloads.Small() {
		progs = append(progs, s.Prog)
	}
	for _, prog := range progs {
		for _, mode := range []core.Mode{core.ModeBase, core.ModeCCDP} {
			for _, n := range []int{1, 3, 5, 8, 64} {
				t.Run(fmt.Sprintf("%s/%v/P%d", prog.Name, mode, n), func(t *testing.T) {
					c, err := core.Compile(prog, mode, machine.T3D(n))
					if err != nil {
						t.Fatal(err)
					}
					e, err := New(c)
					if err != nil {
						t.Fatal(err)
					}
					refs := compiledRefs(e.cp)
					if len(refs) == 0 {
						t.Fatal("no array references compiled")
					}
					pe := e.pes[0]
					for _, r := range refs {
						if e.mem.ArrayOf(r.base) != r.arr {
							t.Fatalf("%s: ref base %d is not its array's", r.src, r.base)
						}
						for addr := r.base; addr < r.base+r.arr.Size(); addr++ {
							if got, want := pe.homeOf(r, addr), e.mem.OwnerOf(addr); got != want {
								t.Fatalf("%s: home of %d = %d, mem.OwnerOf = %d", r.src, addr, got, want)
							}
						}
					}
				})
			}
		}
	}
}
