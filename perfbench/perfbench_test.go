package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/sweepd"
)

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a, b := generate(7), generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("generate(7) differs between calls")
	}
	if reflect.DeepEqual(a, generate(8)) {
		t.Fatal("generate(8) equals generate(7): the seed does not reach the inputs")
	}
}

// TestGenerateMixByConstruction pins the shares the workload's numbers
// depend on: for every seed the same cold count per client, every repeat
// naming an earlier cold request of its own client, each shape's fresh
// request first, and no cold spec shared between clients.
func TestGenerateMixByConstruction(t *testing.T) {
	wantCold := len(servedApps) * len(clientMachines[0]) * 4
	for seed := int64(1); seed <= 5; seed++ {
		streams := generate(seed)
		keys := map[sweepd.Key]int{}
		for c, s := range streams {
			if len(s) != streamLen {
				t.Fatalf("seed %d client %d: %d requests, want %d", seed, c, len(s), streamLen)
			}
			cold := 0
			seen := map[string]bool{}
			for i, r := range s {
				if r.of >= 0 {
					if r.of >= i || s[r.of].of >= 0 || !reflect.DeepEqual(s[r.of].spec, r.spec) {
						t.Fatalf("seed %d client %d request %d: bad repeat of %d", seed, c, i, r.of)
					}
					continue
				}
				cold++
				if !seen[r.shape()] && r.kind != "fresh" {
					t.Fatalf("seed %d client %d: %s precedes the fresh request of %s", seed, c, r.kind, r.shape())
				}
				seen[r.shape()] = true
				job, err := r.spec.Resolve()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if other, dup := keys[job.Key]; dup {
					t.Fatalf("seed %d: cold spec %s sent by clients %d and %d", seed, specLabel(r.spec), other, c)
				}
				keys[job.Key] = c
			}
			if cold != wantCold {
				t.Fatalf("seed %d client %d: %d cold requests, want %d", seed, c, cold, wantCold)
			}
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 50, 400, 4000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		v, pct, exact := tailPercentile(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if !exact || beyond != 10 {
			t.Fatalf("n=%d: value %v has %d samples beyond (exact=%v), want 10", n, v, beyond, exact)
		}
		if want := 100 * float64(n-10) / float64(n); pct != want {
			t.Fatalf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if v, _, exact := tailPercentile([]float64{3, 9, 1}); exact || v != 9 {
		t.Fatalf("3 samples: got %v exact=%v, want the maximum 9 and exact=false", v, exact)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(xs, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(lo, hi int) span {
		return span{Start: time.Duration(lo) * time.Millisecond, End: time.Duration(hi) * time.Millisecond}
	}
	parent := ms(0, 100)
	for _, c := range []struct {
		kids []span
		want int
	}{
		{nil, 100},
		{[]span{ms(10, 30)}, 80},
		// Overlapping children count once; a child running past the
		// parent's end counts only inside it.
		{[]span{ms(10, 30), ms(20, 50), ms(60, 70), ms(90, 120)}, 40},
		{[]span{ms(60, 70), ms(0, 100)}, 0},
	} {
		if got := selfTime(parent, c.kids); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("selfTime(%v) = %v, want %dms", c.kids, got, c.want)
		}
	}
}

func sampleResult() *harness.AppResult {
	ar := &harness.AppResult{Name: "MXM", Profile: "t3d", SeqCycles: 1000}
	for _, p := range []int{2, 4} {
		row := harness.Row{PEs: p, BaseCycles: 900, CCDPCycles: 800, BaseAttempts: 1, CCDPAttempts: 1}
		row.BaseStats.Hits, row.CCDPStats.Hits = 10, 20
		ar.Rows = append(ar.Rows, row)
	}
	return ar
}

func TestRefereeRejectsTamperedRow(t *testing.T) {
	rep := newRunReport(options{})
	refereeRows(sampleResult(), rep, "clean")
	if rep.failed != 0 {
		t.Fatalf("clean result failed: %v", rep.failures)
	}
	ar := sampleResult()
	ar.Rows[1].CCDPStats.OracleViolations = 1
	refereeRows(ar, rep, "tampered")
	if rep.failed != 1 {
		t.Fatalf("an oracle violation failed %d points, want 1", rep.failed)
	}
}

func TestIdentityRejectsTamperedDigestOrCounter(t *testing.T) {
	results := []*harness.AppResult{sampleResult()}
	ref := newIdentity("app,pes\nMXM,2\n", results)
	if d := ref.diff(newIdentity("app,pes\nMXM,2\n", results)); d != "" {
		t.Fatalf("identical output differs: %s", d)
	}
	if ref.diff(newIdentity("app,pes\nMXM,3\n", results)) == "" {
		t.Fatal("a changed CSV byte went unnoticed")
	}
	tampered := []*harness.AppResult{sampleResult()}
	tampered[0].Rows[0].BaseStats.Hits++
	if ref.diff(newIdentity("app,pes\nMXM,2\n", tampered)) == "" {
		t.Fatal("a changed simulated counter went unnoticed")
	}

	rep := newRunReport(options{})
	rep.observeIdentity(ref, 5, "first")
	rep.observeIdentity(newIdentity("changed", results), 5, "second")
	if rep.failed != 5 {
		t.Fatalf("an identity mismatch failed %d operations, want the iteration's 5", rep.failed)
	}
}

func TestPinnedIdentitiesParse(t *testing.T) {
	for _, w := range []string{"paper-flat", "small-torus"} {
		id, ok := pinned(w)
		if !ok || len(id.CSV) != 64 || len(id.Sim) != len(simNames) {
			t.Fatalf("%s: pinned identity missing or incomplete: %+v", w, id)
		}
	}
}

func TestRefereeServedRejectsChangedRepeat(t *testing.T) {
	good, err := json.Marshal(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepd.JobSpec{App: "MXM", Scale: "small", PEs: []int{2, 4}}
	streams := [][]request{{{spec: spec, kind: "fresh", of: -1}, {spec: spec, kind: "repeat", of: 0}}}
	check := func(second []byte, errText string) int {
		rep := newRunReport(options{})
		refereeServed(streams, [][]served{{{result: good}, {memo: true, result: second, err: errText}}}, rep, "test")
		return rep.failed
	}
	if n := check(good, ""); n != 0 {
		t.Fatalf("byte-identical repeat failed %d requests", n)
	}
	if n := check(bytes.Replace(good, []byte("800"), []byte("801"), 1), ""); n != 1 {
		t.Fatalf("a repeat with changed bytes failed %d requests, want 1", n)
	}
	if n := check(nil, "500 Internal Server Error"); n != 1 {
		t.Fatalf("a failed request counted %d failures, want 1", n)
	}
}

// TestServedRoundTrip drives one real in-process sweepd: a cold request,
// then its repeat, which must be a byte-identical memo hit.
func TestServedRoundTrip(t *testing.T) {
	ls, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer ls.close()
	spec := sweepd.JobSpec{App: "MXM", Scale: "small", PEs: []int{2}}
	first, again := post(ls.base, spec), post(ls.base, spec)
	if first.err != "" || again.err != "" {
		t.Fatalf("request failed: %q / %q", first.err, again.err)
	}
	if first.memo || !again.memo || !bytes.Equal(first.result, again.result) {
		t.Fatalf("memo=%v,%v equal=%v: want a cold serve then a byte-identical hit",
			first.memo, again.memo, bytes.Equal(first.result, again.result))
	}
}
