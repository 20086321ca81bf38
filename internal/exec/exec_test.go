package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// stencilProg builds a 1-D Jacobi-like program with genuine cross-PE halo
// traffic: init A, then NT smoothing steps alternating A->T->A.
func stencilProg(n, nt int64) *ir.Program {
	b := ir.NewBuilder("stencil1d")
	a := b.SharedArray("A", n)
	tm := b.SharedArray("T", n)
	b.Routine("main",
		// Quadratic initial data: smoothing genuinely changes values every
		// step (linear data is a fixed point of the stencil).
		ir.DoAll("i0", ir.K(0), ir.K(n-1),
			ir.Set(ir.At(a, ir.I("i0")), ir.Mul(ir.IV(ir.I("i0")), ir.IV(ir.I("i0"))))),
		ir.DoSerial("t", ir.K(1), ir.K(nt),
			ir.DoAll("i", ir.K(1), ir.K(n-2),
				ir.Set(ir.At(tm, ir.I("i")),
					ir.Mul(ir.N(0.5),
						ir.Add(ir.L(ir.At(a, ir.I("i").AddConst(-1))),
							ir.L(ir.At(a, ir.I("i").AddConst(1))))))),
			ir.DoAll("j", ir.K(1), ir.K(n-2),
				ir.Set(ir.At(a, ir.I("j")), ir.L(ir.At(tm, ir.I("j"))))),
		),
	)
	return b.Build()
}

func run(t *testing.T, prog *ir.Program, mode core.Mode, numPE int, opts Options) *Result {
	t.Helper()
	c, err := core.Compile(prog, mode, machine.T3D(numPE))
	if err != nil {
		t.Fatalf("%v compile: %v", mode, err)
	}
	res, err := Run(c, opts)
	if err != nil {
		t.Fatalf("%v run: %v", mode, err)
	}
	return res
}

func arraysEqual(t *testing.T, prog *ir.Program, a, b *Result, name string) bool {
	t.Helper()
	arr := prog.ArrayByName(name)
	da := a.Mem.ArrayData(arr)
	db := b.Mem.ArrayData(arr)
	for i := range da {
		if da[i] != db[i] {
			t.Logf("array %s differs at %d: %v vs %v", name, i, da[i], db[i])
			return false
		}
	}
	return true
}

func TestSeqComputesCorrectValues(t *testing.T) {
	prog := stencilProg(16, 2)
	res := run(t, prog, core.ModeSeq, 1, Options{FailOnStale: true})
	// Hand-compute: A initialized to i², two smoothing steps.
	a := make([]float64, 16)
	tm := make([]float64, 16)
	for i := range a {
		a[i] = float64(i) * float64(i)
	}
	for step := 0; step < 2; step++ {
		for i := 1; i <= 14; i++ {
			tm[i] = 0.5 * (a[i-1] + a[i+1])
		}
		for i := 1; i <= 14; i++ {
			a[i] = tm[i]
		}
	}
	got := res.Mem.ArrayData(prog.ArrayByName("A"))
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("A[%d] = %v, want %v", i, got[i], a[i])
		}
	}
	if res.Stats.StaleValueReads != 0 {
		t.Errorf("SEQ stale reads = %d", res.Stats.StaleValueReads)
	}
}

func TestBaseMatchesSeqAndNeverCachesShared(t *testing.T) {
	prog := stencilProg(64, 3)
	seq := run(t, prog, core.ModeSeq, 1, Options{FailOnStale: true})
	base := run(t, prog, core.ModeBase, 4, Options{FailOnStale: true, DetectRaces: true})
	if !arraysEqual(t, prog, seq, base, "A") {
		t.Error("BASE results differ from sequential")
	}
	if base.Stats.NonCachedRefs == 0 {
		t.Error("BASE made no CRAFT shared accesses")
	}
	if base.Stats.Hits != 0 {
		t.Errorf("BASE hit the cache %d times on an all-shared program", base.Stats.Hits)
	}
}

func TestCCDPMatchesSeqWithZeroStaleReads(t *testing.T) {
	prog := stencilProg(64, 3)
	seq := run(t, prog, core.ModeSeq, 1, Options{FailOnStale: true})
	ccdp := run(t, prog, core.ModeCCDP, 4, Options{FailOnStale: true, DetectRaces: true})
	if !arraysEqual(t, prog, seq, ccdp, "A") {
		t.Error("CCDP results differ from sequential")
	}
	if ccdp.Stats.StaleValueReads != 0 {
		t.Errorf("CCDP stale reads = %d", ccdp.Stats.StaleValueReads)
	}
	if ccdp.Stats.Hits == 0 {
		t.Error("CCDP never hit the cache")
	}
	if ccdp.Stats.InvalidatedLines == 0 {
		t.Error("CCDP never invalidated (halo regions are dirty)")
	}
}

func TestIncoherentModeProducesStaleReads(t *testing.T) {
	prog := stencilProg(64, 3)
	seq := run(t, prog, core.ModeSeq, 1, Options{})
	inc := run(t, prog, core.ModeIncoherent, 4, Options{})
	if inc.Stats.StaleValueReads == 0 {
		t.Fatal("incoherent caching produced no stale reads — checker broken or workload too tame")
	}
	if arraysEqual(t, prog, seq, inc, "A") {
		t.Error("incoherent run produced correct values despite stale reads")
	}
}

func TestCCDPFasterThanBaseOnRemoteHeavyCode(t *testing.T) {
	// All PEs repeatedly read one remote-owned block: BASE pays the full
	// remote latency per access, CCDP vector-prefetches it.
	b := ir.NewBuilder("remoteheavy")
	a := b.SharedArray("A", 1024)
	c := b.SharedArray("C", 1024)
	b.Routine("main",
		ir.DoAll("w", ir.K(0), ir.K(1023), ir.Set(ir.At(a, ir.I("w")), ir.IV(ir.I("w")))),
		ir.DoSerial("rep", ir.K(1), ir.K(4),
			ir.DoAll("j", ir.K(0), ir.K(1023),
				ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(1023)))))),
	)
	prog := b.Build()
	seq := run(t, prog, core.ModeSeq, 1, Options{FailOnStale: true})
	base := run(t, prog, core.ModeBase, 8, Options{FailOnStale: true})
	ccdp := run(t, prog, core.ModeCCDP, 8, Options{FailOnStale: true, DetectRaces: true})
	if !arraysEqual(t, prog, seq, ccdp, "C") || !arraysEqual(t, prog, seq, base, "C") {
		t.Fatal("values diverged")
	}
	if ccdp.Cycles >= base.Cycles {
		t.Errorf("CCDP (%d cycles) not faster than BASE (%d cycles)", ccdp.Cycles, base.Cycles)
	}
	if ccdp.Stats.VectorPrefetches == 0 && ccdp.Stats.PrefetchIssued == 0 {
		t.Error("CCDP issued no prefetches")
	}
}

func TestSoftwarePipelinedPrefetchesConsumed(t *testing.T) {
	// Serial inner loop over a large remote region inside a 1-iteration
	// DOALL forces SP (vector too big), and its prefetches must be used.
	b := ir.NewBuilder("sp")
	a := b.SharedArray("A", 4096)
	c := b.SharedArray("C", 4096)
	b.Routine("main",
		ir.DoAll("w", ir.K(0), ir.K(4095), ir.Set(ir.At(a, ir.I("w")), ir.IV(ir.I("w")))),
		ir.DoAll("j", ir.K(0), ir.K(0),
			ir.DoSerial("i", ir.K(0), ir.K(4095),
				ir.Set(ir.At(c, ir.I("i")), ir.L(ir.At(a, ir.I("i").Neg().AddConst(4095)))))),
	)
	prog := b.Build()
	ccdp := run(t, prog, core.ModeCCDP, 2, Options{FailOnStale: true})
	if ccdp.Stats.PrefetchIssued == 0 {
		t.Fatal("no pipelined prefetches issued")
	}
	if ccdp.Stats.PrefetchConsumed == 0 {
		t.Error("pipelined prefetches never consumed")
	}
	if ccdp.Stats.PrefetchConsumed < ccdp.Stats.PrefetchIssued/2 {
		t.Errorf("only %d of %d prefetches consumed", ccdp.Stats.PrefetchConsumed, ccdp.Stats.PrefetchIssued)
	}
}

func TestDynamicSchedulingDeterministicAndCorrect(t *testing.T) {
	b := ir.NewBuilder("dyn")
	a := b.SharedArray("A", 256)
	c := b.SharedArray("C", 256)
	b.Routine("main",
		ir.DoAll("w", ir.K(0), ir.K(255), ir.Set(ir.At(a, ir.I("w")), ir.IV(ir.I("w")))),
		ir.DoAllDynamic("i", ir.K(0), ir.K(255),
			ir.Set(ir.At(c, ir.I("i")), ir.L(ir.At(a, ir.I("i"))))),
	)
	prog := b.Build()
	seq := run(t, prog, core.ModeSeq, 1, Options{})
	r1 := run(t, prog, core.ModeCCDP, 4, Options{FailOnStale: true})
	r2 := run(t, prog, core.ModeCCDP, 4, Options{FailOnStale: true})
	if !arraysEqual(t, prog, seq, r1, "C") {
		t.Error("dynamic scheduling wrong values")
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("nondeterministic cycles: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

func TestRaceDetectionCatchesModelViolation(t *testing.T) {
	// Every PE writes A(0): write-write conflict inside one epoch.
	b := ir.NewBuilder("racy")
	a := b.SharedArray("A", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.K(0)), ir.IV(ir.I("i")))),
	)
	prog := b.Build()
	c, err := core.Compile(prog, core.ModeBase, machine.T3D(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, Options{DetectRaces: true}); err == nil {
		t.Error("write-write race not detected")
	}
}

func TestScalarBroadcastAfterSerialEpoch(t *testing.T) {
	// Serial epoch computes s; parallel epoch uses it on every PE.
	b := ir.NewBuilder("scalar")
	a := b.SharedArray("A", 64)
	b.Routine("main",
		ir.Set(ir.S("s"), ir.N(2.5)),
		ir.DoAll("i", ir.K(0), ir.K(63),
			ir.Set(ir.At(a, ir.I("i")), ir.Mul(ir.L(ir.S("s")), ir.IV(ir.I("i"))))),
	)
	prog := b.Build()
	res := run(t, prog, core.ModeBase, 4, Options{FailOnStale: true})
	got := res.Mem.ArrayData(prog.ArrayByName("A"))
	for i := range got {
		if got[i] != 2.5*float64(i) {
			t.Fatalf("A[%d] = %v, want %v (scalar broadcast broken)", i, got[i], 2.5*float64(i))
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	prog := stencilProg(64, 1)
	res := run(t, prog, core.ModeCCDP, 4, Options{})
	for p, c := range res.PECycles {
		if c != res.PECycles[0] {
			t.Errorf("PE %d clock %d differs from PE 0's %d after final barrier", p, c, res.PECycles[0])
		}
	}
	if res.Stats.Barriers == 0 {
		t.Error("no barriers counted")
	}
}

func TestSpeedupScalesWithPEs(t *testing.T) {
	prog := stencilProg(2048, 4)
	seq := run(t, prog, core.ModeSeq, 1, Options{})
	c2 := run(t, prog, core.ModeCCDP, 2, Options{})
	c8 := run(t, prog, core.ModeCCDP, 8, Options{})
	if !(c8.Cycles < c2.Cycles && c2.Cycles < seq.Cycles) {
		t.Errorf("no scaling: seq=%d P2=%d P8=%d", seq.Cycles, c2.Cycles, c8.Cycles)
	}
}

func TestTraceCapturesReferenceStream(t *testing.T) {
	prog := stencilProg(64, 2)
	c, err := core.Compile(prog, core.ModeCCDP, machine.T3D(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(4)
	res, err := Run(c, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	counts := tr.KindCounts()
	if int64(counts[trace.KindHit]) != res.Stats.Hits {
		t.Errorf("trace hits %d != stats hits %d", counts[trace.KindHit], res.Stats.Hits)
	}
	if int64(counts[trace.KindWrite]) != res.Stats.LocalWrites+res.Stats.RemoteWrites {
		t.Errorf("trace writes %d != stats writes %d",
			counts[trace.KindWrite], res.Stats.LocalWrites+res.Stats.RemoteWrites)
	}
	if int64(counts[trace.KindRegister]) != res.Stats.RegisterHits {
		t.Errorf("trace register hits %d != stats %d", counts[trace.KindRegister], res.Stats.RegisterHits)
	}
	// Reuse-distance analysis runs and predicts a plausible hit ratio.
	hist, cold := tr.ReuseDistances(0, c.Machine.LineWords)
	ratio := trace.HitRatioForCache(hist, cold, int(c.Machine.CacheLines()))
	if ratio <= 0 || ratio > 1 {
		t.Errorf("predicted hit ratio %v out of range", ratio)
	}
}

func TestTraceWrongPECountRejected(t *testing.T) {
	prog := stencilProg(32, 1)
	c, err := core.Compile(prog, core.ModeSeq, machine.T3D(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, Options{Trace: trace.New(3)}); err == nil {
		t.Error("mismatched trace accepted")
	}
}

func TestOutOfBoundsSubscriptIsAnError(t *testing.T) {
	b := ir.NewBuilder("oob")
	a := b.SharedArray("A", 8)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(15), // runs past the array
			ir.Set(ir.At(a, ir.I("i")), ir.N(1))),
	)
	prog := b.Build()
	c, err := core.Compile(prog, core.ModeSeq, machine.T3D(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, Options{}); err == nil {
		t.Error("out-of-bounds subscript not reported")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestEmptyLoopRangesRunCleanly(t *testing.T) {
	b := ir.NewBuilder("empty")
	a := b.SharedArray("A", 8)
	b.Routine("main",
		ir.DoAll("i", ir.K(5), ir.K(2), ir.Set(ir.At(a, ir.I("i")), ir.N(1))),
		ir.DoSerial("j", ir.K(3), ir.K(1), ir.Set(ir.At(a, ir.I("j")), ir.N(2))),
		ir.Set(ir.At(a, ir.K(0)), ir.N(9)),
	)
	prog := b.Build()
	res := run(t, prog, core.ModeCCDP, 4, Options{FailOnStale: true})
	if got := res.Mem.ArrayData(prog.ArrayByName("A"))[0]; got != 9 {
		t.Errorf("A[0] = %v", got)
	}
}

func TestFailOnStaleStopsIncoherentRun(t *testing.T) {
	prog := stencilProg(64, 3)
	c, err := core.Compile(prog, core.ModeIncoherent, machine.T3D(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(c, Options{FailOnStale: true}); err == nil {
		t.Error("FailOnStale did not stop an incoherent run")
	}
}

func TestMorePEsThanIterations(t *testing.T) {
	b := ir.NewBuilder("tiny")
	a := b.SharedArray("A", 4)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(3), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
	)
	prog := b.Build()
	res := run(t, prog, core.ModeCCDP, 16, Options{FailOnStale: true, DetectRaces: true})
	data := res.Mem.ArrayData(prog.ArrayByName("A"))
	for i := range data {
		if data[i] != float64(i) {
			t.Errorf("A[%d] = %v", i, data[i])
		}
	}
}

// resultSnap deep-copies the comparable observables of a Result: a Result
// returned by Engine.Run aliases Engine-owned storage that the next Run on
// the same Engine overwrites, so cross-run comparisons must copy first.
type resultSnap struct {
	cycles     int64
	stats      interface{}
	pecycles   []int64
	violations []fault.Violation
	net        *noc.Summary
	data       [][]float64
}

func snapResult(r *Result, spec *workloads.Spec) resultSnap {
	s := resultSnap{
		cycles:     r.Cycles,
		stats:      r.Stats,
		pecycles:   append([]int64(nil), r.PECycles...),
		violations: append([]fault.Violation(nil), r.Violations...),
	}
	if r.Net != nil {
		s.net = r.Net.Clone()
	}
	for _, name := range spec.CheckArrays {
		s.data = append(s.data, r.Mem.ArrayData(r.Mem.ArrayNamed(name)))
	}
	return s
}

// diff names the first observable on which two snapshots differ ("" when
// they are identical).
func (s resultSnap) diff(o resultSnap) string {
	switch {
	case s.cycles != o.cycles || s.stats != o.stats:
		return "stats"
	case !reflect.DeepEqual(s.pecycles, o.pecycles):
		return "per-PE cycles"
	case !reflect.DeepEqual(s.violations, o.violations):
		return "oracle violations"
	case !reflect.DeepEqual(s.net, o.net):
		return "network summary"
	case !reflect.DeepEqual(s.data, o.data):
		return "results"
	}
	return ""
}

// TestEngineReuseIsDeterministic pins the arena behaviour the Engine split
// exists for: one Engine Run repeatedly on the same arenas must reproduce
// the identical result every time, on both topologies.
func TestEngineReuseIsDeterministic(t *testing.T) {
	spec := workloads.MXM(32, 16, 8)
	for _, topo := range []string{"flat", "torus"} {
		t.Run(topo, func(t *testing.T) {
			mp := machine.T3D(8)
			var err error
			if mp.Topology, err = noc.Parse(topo); err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(spec.Prog, core.ModeCCDP, mp)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			var ref resultSnap
			for i := 0; i < 4; i++ {
				r, err := eng.Run(Options{FailOnStale: true})
				if err != nil {
					t.Fatal(err)
				}
				got := snapResult(r, spec)
				if i == 0 {
					ref = got
					continue
				}
				if d := got.diff(ref); d != "" {
					t.Errorf("run %d: %s diverge from run 0", i, d)
				}
			}
		})
	}
}

// TestPoolReuseAfterFailureMatchesFresh is the engine-pool property: after
// a run that failed (INCOHERENT with FailOnStale) and after a run that
// panicked, the next Run of the same compilation must equal a fresh
// engine's run — across modes, both topologies, with and without a fault
// plan. The panic comes from a deliberately corrupted engine planted in the
// pool; its Run resets nothing that would repair the corruption, so the
// pool must drop it rather than hand it out again.
func TestPoolReuseAfterFailureMatchesFresh(t *testing.T) {
	spec := workloads.SWIM(33, 2)
	plans := map[string]fault.Plan{
		"no-faults": {},
		"faults":    {Seed: 7, Rate: 0.02, Kinds: []fault.Kind{fault.KindLate, fault.KindSpike, fault.KindSkew}},
	}
	for _, mode := range []core.Mode{core.ModeBase, core.ModeCCDP, core.ModeIncoherent, core.ModeHWDir} {
		for _, topo := range []string{"flat", "torus"} {
			for _, planName := range []string{"no-faults", "faults"} {
				name := fmt.Sprintf("%v-%s-%s", mode, topo, planName)
				t.Run(name, func(t *testing.T) {
					mp := machine.T3D(8)
					var err error
					if mp.Topology, err = noc.Parse(topo); err != nil {
						t.Fatal(err)
					}
					c, err := core.Compile(spec.Prog, mode, mp)
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{Fault: plans[planName]}
					fresh, err := New(c)
					if err != nil {
						t.Fatal(err)
					}
					fr, err := fresh.Run(opts)
					if err != nil {
						t.Fatal(err)
					}
					want := snapResult(fr, spec)
					check := func(after string) {
						t.Helper()
						r, err := Run(c, opts)
						if err != nil {
							t.Fatalf("after %s: %v", after, err)
						}
						if d := snapResult(r, spec).diff(want); d != "" {
							t.Errorf("after %s: %s diverge from a fresh engine", after, d)
						}
					}

					if mode == core.ModeIncoherent {
						if _, err := Run(c, Options{FailOnStale: true, Fault: opts.Fault}); err == nil {
							t.Fatal("INCOHERENT run with FailOnStale did not fail")
						}
						check("a failed run")
					}

					bad, err := New(c)
					if err != nil {
						t.Fatal(err)
					}
					bad.pes[0].idxScratch = nil // every array access now panics
					pool := poolFor(c)
					pool.put(bad)
					if _, err := Run(c, opts); err == nil {
						t.Fatal("run on the corrupted engine did not fail")
					}
					pool.mu.Lock()
					for _, e := range pool.idle {
						if e == bad {
							t.Error("pool kept the engine whose run panicked")
						}
					}
					pool.mu.Unlock()
					check("a panicked run")
				})
			}
		}
	}
}
