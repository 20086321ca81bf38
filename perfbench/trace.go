package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// span is one timed call across a layer boundary. Parent is the span that
// caused it (0 = root); spans of one served request share Req.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; dump writes them out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id and start time.
func (t *tracer) begin(name string, parent, req int) (int, time.Time) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now.Sub(t.epoch)})
	return id, now
}

// finish closes the span begin opened.
func (t *tracer) finish(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.epoch)
	t.mu.Unlock()
}

// addDone records an already-measured span.
func (t *tracer) addDone(name string, parent, req int, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.epoch)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: s, End: s + d})
}

// named returns every span with the given name, with each one's children.
func (t *tracer) named(name string) (out []span, kids map[int][]span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids = map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out, kids
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	ss, _ := t.named(name)
	var d time.Duration
	for _, s := range ss {
		d += s.dur()
	}
	return d, len(ss)
}

// selfTotal sums the self time of every span with the given name.
func (t *tracer) selfTotal(name string) time.Duration {
	ss, kids := t.named(name)
	var d time.Duration
	for _, s := range ss {
		d += selfTime(s, kids[s.ID])
	}
	return d
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (concurrent compiles
// inside one RunApp), so the covered time is the length of the union of
// their intervals, clipped to the parent's.
func selfTime(p span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			covered += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return p.dur() - covered
}

// dump writes the spans as JSON lines to dir/trace-<workload>-seed<N>.jsonl.
func (t *tracer) dump(dir string, opt options) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// appRun is one traced harness.RunApp: its result and every program the
// harness compiled for it, captured through the public Config.Compile hook.
type appRun struct {
	spec     *workloads.Spec
	faulted  bool
	res      *harness.AppResult
	compiled []*core.Compiled
}

// runApp calls harness.RunApp under a "harness.RunApp" span. The compile
// hook is exactly the harness default (core.Compile on the workload's
// program) wrapped in a "core.Compile" span whose children are the
// pipeline's own per-pass timings, laid end to end from the compile's
// start as the pass manager runs them.
func (t *tracer) runApp(s *workloads.Spec, cfg harness.Config, parent, req int) (*appRun, error) {
	id, _ := t.begin("harness.RunApp", parent, req)
	ar := &appRun{spec: s, faulted: cfg.Fault.Enabled()}
	var mu sync.Mutex
	cfg.Compile = func(s *workloads.Spec, mode core.Mode, mp machine.Params) (*core.Compiled, error) {
		cid, start := t.begin("core.Compile", id, req)
		c, err := core.Compile(s.Prog, mode, mp)
		t.finish(cid)
		if err != nil {
			return nil, err
		}
		at := start
		for _, pt := range c.Timings {
			t.addDone("pass."+pt.Pass, cid, req, at, pt.Duration)
			at = at.Add(pt.Duration)
		}
		mu.Lock()
		ar.compiled = append(ar.compiled, c)
		mu.Unlock()
		return c, nil
	}
	res, err := harness.RunApp(s, cfg)
	t.finish(id)
	ar.res = res
	return ar, err
}

// replayStats is the engine split the replay measures.
type replayStats struct {
	newTime, runTime, runCPU time.Duration
	rollbacks                int64
	refs                     int64
}

// replay runs every captured program once more, serially, through
// exec.New and (*Engine).Run, timing construction and execution apart.
// It also referees: a fault-free replay must reproduce the cycles and
// statistics the sweep reported for that point, and a SEQ run of a
// workload with a plain-Go golden must match it exactly.
func replay(runs []*appRun, rep *runReport) replayStats {
	var rs replayStats
	for _, ar := range runs {
		var golden map[string][]float64
		if ar.spec.Golden != nil {
			golden = ar.spec.Golden()
		}
		for _, c := range ar.compiled {
			t0 := time.Now()
			e, err := exec.New(c)
			t1 := time.Now()
			if err != nil {
				rep.fail(1, "replay %s %s P=%d: exec.New: %v", ar.spec.Name, c.Mode, c.Machine.NumPE, err)
				continue
			}
			cpu0 := cpuTime()
			res, err := e.Run(exec.Options{FailOnStale: true})
			t2 := time.Now()
			rs.runCPU += cpuTime() - cpu0
			rs.newTime += t1.Sub(t0)
			rs.runTime += t2.Sub(t1)
			rs.rollbacks += e.SpecRollbacks()
			e.Close()
			if err != nil {
				rep.fail(1, "replay %s %s P=%d: %v", ar.spec.Name, c.Mode, c.Machine.NumPE, err)
				continue
			}
			rs.refs += simRefs(&res.Stats)
			if c.Mode == core.ModeSeq && golden != nil {
				for name, want := range golden {
					got := res.Mem.ArrayData(res.Mem.ArrayNamed(name))
					if i := firstDiff(got, want); i >= 0 {
						rep.fail(1, "%s SEQ array %s differs from the plain-Go golden at %d", ar.spec.Name, name, i)
					}
				}
			}
			if !ar.faulted && ar.res != nil {
				if msg := matchRow(ar.res, c, res); msg != "" {
					rep.fail(1, "replay %s %s P=%d: %s", ar.spec.Name, c.Mode, c.Machine.NumPE, msg)
				}
			}
		}
	}
	return rs
}

func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// matchRow checks a replayed point against the sweep's reported row.
func matchRow(ar *harness.AppResult, c *core.Compiled, res *exec.Result) string {
	if c.Mode == core.ModeSeq {
		if res.Cycles != ar.SeqCycles {
			return fmt.Sprintf("cycles %d, sweep reported %d", res.Cycles, ar.SeqCycles)
		}
		return ""
	}
	for _, row := range ar.Rows {
		if row.PEs != c.Machine.NumPE {
			continue
		}
		cycles, st := row.CCDPCycles, row.CCDPStats
		if c.Mode == core.ModeBase {
			cycles, st = row.BaseCycles, row.BaseStats
		}
		if res.Cycles != cycles || res.Stats != st {
			return fmt.Sprintf("cycles %d, sweep reported %d (or statistics differ)", res.Cycles, cycles)
		}
		return ""
	}
	return "no matching row"
}
