package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// observeRuntime records the Go runtime's allocation and GC work over one
// untraced iteration (ms0 read just before it).
func (r *runReport) observeRuntime(ms0 *runtime.MemStats) {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.allocMB = append(r.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	r.gcCycles = append(r.gcCycles, float64(ms1.NumGC-ms0.NumGC))
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	tr         *tracer
	replay     replayStats
	probe      *probeStats
	results    []*harness.AppResult // the RunApp results the spans cover
	build      time.Duration        // one workload IR build
	tracedWall time.Duration        // the traced iteration, replay excluded
}

// passMetrics are the compile passes reported per layer: the stale
// fixpoint and the three CCDP passes after it.
var passMetrics = []string{core.PassStale, core.PassTargets, core.PassSched, core.PassCandidates}

// layerMetrics fills the per-layer metrics of a traced run.
func (r *runReport) layerMetrics(in layerInputs) {
	set := func(name string, v float64, unit string) { r.layers[name] = metric{Value: v, Unit: unit} }
	tr := in.tr

	set("workloads.build_s", in.build.Seconds(), "s")

	compile, compiles := tr.total("core.Compile")
	runApp, _ := tr.total("harness.RunApp")
	set("core.compile_s", compile.Seconds(), "s")
	set("core.compiles", float64(compiles), "count")
	set("core.compile_share", ratio(compile.Seconds(), runApp.Seconds()), "ratio")
	for _, p := range passMetrics {
		d, _ := tr.total("pass." + p)
		set("pass."+p+"_s", d.Seconds(), "s")
	}

	points, attempts := 0, 0
	for _, ar := range in.results {
		points += pointsPerApp(len(ar.Rows))
		attempts++ // SEQ
		for _, row := range ar.Rows {
			attempts += row.BaseAttempts + row.CCDPAttempts
		}
	}
	set("harness.run_app_s", runApp.Seconds(), "s")
	set("harness.self_s", tr.selfTotal("harness.RunApp").Seconds(), "s")
	set("harness.points", float64(points), "count")
	set("harness.attempts", float64(attempts), "count")

	rs := in.replay
	set("exec.new_s", rs.newTime.Seconds(), "s")
	set("exec.run_s", rs.runTime.Seconds(), "s")
	set("exec.ns_per_ref", ratio(float64(rs.runTime.Nanoseconds()), float64(rs.refs)), "ns")
	set("exec.run_cpu_s", rs.runCPU.Seconds(), "s")
	set("exec.cpu_per_wall", ratio(rs.runCPU.Seconds(), rs.runTime.Seconds()), "ratio")
	set("exec.spec_rollbacks", float64(rs.rollbacks), "count")

	for _, n := range simNames {
		set(n, float64(r.ident.Sim[n]), "count")
	}

	emit, _ := tr.total("report.CSV")
	set("report.emit_s", emit.Seconds(), "s")

	p := in.probe
	set("sweepd.hit_p50_ms", p.hitP50, "ms")
	set("sweepd.miss_p50_ms", p.missP50, "ms")
	set("sweepd.resolve_us", p.resolveMedianUS, "us")
	set("sweepd.memo_hits", float64(p.st.Memo.Hits), "count")
	set("sweepd.memo_hit_ratio", ratio(float64(p.st.Memo.Hits), float64(p.st.Memo.Hits+p.st.Memo.Misses)), "ratio")
	set("sweepd.compile_hits", float64(p.st.Compile.Hits), "count")
	set("sweepd.compile_hit_ratio", ratio(float64(p.st.Compile.Hits), float64(p.st.Compile.Hits+p.st.Compile.Misses)), "ratio")
	set("sweepd.jobs_run", float64(p.st.JobsRun), "count")

	set("go.alloc_mb", median(r.allocMB), "MB")
	set("go.gc_cycles", median(r.gcCycles), "count")
	set("trace.overhead_s", in.tracedWall.Seconds()-median(r.wall), "s")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dumpTrace writes the run's spans under the state directory.
func (r *runReport) dumpTrace(tr *tracer) error {
	path, err := tr.dump(r.opt.state, r.opt)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.notes = append(r.notes, "spans: "+path)
	return nil
}
