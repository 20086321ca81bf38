package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sweepd"
	"repro/internal/workloads"
)

// machineConfig is one machine a sweep runs on.
type machineConfig struct{ profile, topology string }

// sweepWorkload is a ccdpbench sweep run in-process: every machine config
// is one ccdpbench invocation (`-apps A -scale S -machine-profile P
// -topology T`, default -jobs and PEs 1..64), run back to back.
type sweepWorkload struct {
	name     string
	apps     string
	scale    string
	machines []machineConfig
}

var (
	paperFlat = &sweepWorkload{name: "paper-flat", apps: "MXM,VPENTA", scale: "paper",
		machines: []machineConfig{{"t3d", "flat"}}}
	smallTorus = &sweepWorkload{name: "small-torus", apps: "MXM,VPENTA,TOMCATV,SWIM", scale: "small",
		machines: []machineConfig{{"t3d", "torus"}, {"cxl-pcc", "torus"}}}
)

// setupReps is how many set-ups precede each timed iteration. setup_s is
// their median, so set-up is sampled throughout the run and one slow
// set-up (the first, cold one) does not move it.
const setupReps = 15

// sweepInputs is one set-up's product: the workload IR and the harness
// configuration of every machine.
type sweepInputs struct {
	specs []*workloads.Spec
	cfgs  []harness.Config
}

func (w *sweepWorkload) setup() (*sweepInputs, error) {
	specs, err := driver.Apps(w.apps, w.scale)
	if err != nil {
		return nil, err
	}
	in := &sweepInputs{specs: specs}
	for _, m := range w.machines {
		cfg, err := driver.SweepConfig(m.profile, 0, m.topology, "", 0, "", 0)
		if err != nil {
			return nil, err
		}
		cfg.PECounts = harness.PaperPEs
		in.cfgs = append(in.cfgs, cfg)
	}
	return in, nil
}

// ops is the number of operations — (app, mode, PEs) runs, SEQ included —
// one iteration attempts.
func (w *sweepWorkload) ops(in *sweepInputs) int {
	return len(in.cfgs) * len(in.specs) * pointsPerApp(len(harness.PaperPEs))
}

func pointsPerApp(pes int) int { return 1 + 2*pes }

// sweepOut is one iteration's output.
type sweepOut struct {
	results []*harness.AppResult // machine-major, then app order
	errs    []error
	runs    []*appRun // traced iterations only
	csv     string
}

// iterate runs one timed sweep: for each machine, parallel.ForEach over
// harness.RunApp at ccdpbench's default -jobs, then the CSV rendering.
// With a tracer every RunApp goes through the traced compile hook.
func (w *sweepWorkload) iterate(in *sweepInputs, tr *tracer) *sweepOut {
	n := len(in.specs)
	out := &sweepOut{
		results: make([]*harness.AppResult, len(in.cfgs)*n),
		errs:    make([]error, len(in.cfgs)*n),
	}
	if tr != nil {
		out.runs = make([]*appRun, len(in.cfgs)*n)
	}
	for k, cfg := range in.cfgs {
		root := 0
		if tr != nil {
			root, _ = tr.begin("parallel.ForEach", 0, 0)
		}
		parallel.ForEach(n, 0, func(i int) {
			j := k*n + i
			if tr == nil {
				out.results[j], out.errs[j] = harness.RunApp(in.specs[i], cfg)
				return
			}
			run, err := tr.runApp(in.specs[i], cfg, root, 0)
			out.runs[j], out.results[j], out.errs[j] = run, run.res, err
		}, nil)
		if tr != nil {
			tr.finish(root)
		}
	}
	id := 0
	if tr != nil {
		id, _ = tr.begin("report.CSV", 0, 0)
	}
	var b strings.Builder
	for k := range in.cfgs {
		rs := out.results[k*n : (k+1)*n]
		if !allPresent(rs) {
			break // the referee counts the failure; nothing to render
		}
		b.WriteString(report.CSV(rs))
	}
	out.csv = b.String()
	if tr != nil {
		tr.finish(id)
	}
	return out
}

func allPresent(rs []*harness.AppResult) bool {
	for _, r := range rs {
		if r == nil {
			return false
		}
	}
	return true
}

// referee counts one iteration's operations and failures: every RunApp
// must succeed (the harness verifies each point bit-equal to SEQ with zero
// stale-value reads) and every point must report zero oracle violations.
func (w *sweepWorkload) referee(in *sweepInputs, out *sweepOut, rep *runReport, what string) {
	ops := w.ops(in)
	rep.attempted += ops
	rep.iterOps = ops
	for j, ar := range out.results {
		app := in.specs[j%len(in.specs)].Name
		m := w.machines[j/len(in.specs)]
		if err := out.errs[j]; err != nil || ar == nil {
			rep.fail(pointsPerApp(len(harness.PaperPEs)), "%s %s %s/%s: %v", what, app, m.profile, m.topology, err)
			continue
		}
		refereeRows(ar, rep, fmt.Sprintf("%s %s %s/%s", what, app, m.profile, m.topology))
	}
	rep.observeIdentity(newIdentity(out.csv, out.results), ops, what)
}

// refereeRows fails every point of a result that reports oracle
// violations or stale-value reads.
func refereeRows(ar *harness.AppResult, rep *runReport, what string) {
	for _, row := range ar.Rows {
		for _, st := range []struct {
			mode       string
			viol, stal int64
		}{
			{"BASE", row.BaseStats.OracleViolations, row.BaseStats.StaleValueReads},
			{"CCDP", row.CCDPStats.OracleViolations, row.CCDPStats.StaleValueReads},
		} {
			if st.viol != 0 || st.stal != 0 {
				rep.fail(1, "%s %s P=%d: %d oracle violations, %d stale-value reads",
					what, st.mode, row.PEs, st.viol, st.stal)
			}
		}
	}
}

// runIters is the untraced measurement (see measureLoop).
func (w *sweepWorkload) runIters(opt options, window time.Duration, rep *runReport) error {
	return measureLoop(rep, window, w.setup, nil, func(k int, in *sweepInputs) error {
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rss := startRSS()
		t0, c0 := time.Now(), cpuTime()
		out := w.iterate(in, nil)
		wall, cpu := time.Since(t0), cpuTime()-c0
		rep.rss = append(rep.rss, rss.finish())
		rep.observeRuntime(&ms0)
		// A sweep is one request: the caller waits for the whole table.
		rep.addIteration(wall, cpu, []float64{float64(wall) / float64(time.Millisecond)})
		w.referee(in, out, rep, fmt.Sprintf("iteration %d", k))
		return nil
	})
}

// traced is the per-layer run: one traced sweep, the serial engine replay
// of every program it compiled, and a served probe of the same sweep.
func (w *sweepWorkload) traced(opt options, rep *runReport) error {
	tr := newTracer()
	id, _ := tr.begin("driver.Apps", 0, 0)
	in, err := w.setup()
	tr.finish(id)
	if err != nil {
		return err
	}
	t0 := time.Now()
	out := w.iterate(in, tr)
	tracedWall := time.Since(t0)
	w.referee(in, out, rep, "traced iteration")
	var runs []*appRun
	for _, r := range out.runs {
		if r != nil {
			runs = append(runs, r)
		}
	}
	rs := replay(runs, rep)
	probe, err := w.servedProbe(in, out, rep, tr)
	if err != nil {
		return err
	}
	build, _ := tr.total("driver.Apps")
	rep.layerMetrics(layerInputs{
		tr: tr, replay: rs, probe: probe, results: out.results,
		build: build, tracedWall: tracedWall,
	})
	return rep.dumpTrace(tr)
}

// servedProbe serves the same sweep through a fresh in-process sweepd —
// one single-app JobSpec per request, two closed-loop clients, the sweep
// cold and then warm — and checks every served result byte-identical to
// the in-process one. It is what gives the sweep workloads sweepd numbers
// (cold = a full engine run behind the service, warm = a memo hit).
func (w *sweepWorkload) servedProbe(in *sweepInputs, out *sweepOut, rep *runReport, tr *tracer) (*probeStats, error) {
	var specs []sweepd.JobSpec
	for _, m := range w.machines {
		for _, s := range in.specs {
			specs = append(specs, sweepd.JobSpec{App: s.Name, Scale: w.scale,
				PEs: harness.PaperPEs, Profile: m.profile, Topology: m.topology})
		}
	}
	streams := make([][]request, 2)
	for i, s := range specs {
		streams[i%2] = append(streams[i%2], request{spec: s, kind: "fresh", of: -1, idx: i})
	}
	ls, err := startServer()
	if err != nil {
		return nil, err
	}
	defer ls.close()
	var all []served
	for pass := 0; pass < 2; pass++ {
		got := serveStreams(ls.base, streams, tr)
		for c := range streams {
			for i, r := range streams[c] {
				s := got[c][i]
				all = append(all, s)
				rep.attempted++
				if s.err != "" {
					rep.fail(1, "probe %s: %s", specLabel(r.spec), s.err)
					continue
				}
				want, err := json.Marshal(out.results[r.idx])
				if err != nil || string(want) != string(s.result) {
					rep.fail(1, "probe %s: served result differs from the in-process result", specLabel(r.spec))
				}
			}
		}
	}
	st, err := ls.stats()
	if err != nil {
		return nil, err
	}
	return newProbeStats(all, st, resolveTimes(specs, tr)), nil
}
