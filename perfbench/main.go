// Command perfbench is the repository's end-to-end benchmark. It drives the
// same public entry points ccdpbench and sweepd users hit — driver.Apps →
// parallel.ForEach over harness.RunApp → report for the sweep workloads, and
// sweepd.NewServer(...).Handler() over loopback HTTP for the served one —
// measures each whole run, and referees every output it produces.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload paper-flat|small-torus|served-mixed --seed N
//	          --seconds S --trace 0|1 [--state DIR]
//	perfbench --workload all [--runs R] [--seed N] [--seconds S] [--trace 0|1]
//
// The all mode runs every workload R times, each run a fresh process of
// this binary with seeds N..N+R-1, and prints each metric's median and
// quartiles over the runs; it exits 1 if any run failed.
//
// A run repeats its workload (fresh set-up each time) while another
// iteration still fits in S seconds, then prints a summary and, as the
// last line of standard output, one JSON object {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the run also records spans around every call into
// a layer and prints the per-layer metrics instead. Any correctness failure prints correct=false
// and exits 1; an infrastructure failure exits 1 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart approximates process entry: package initialization runs
// before main, so the first set-up sample is measured from here.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	state    string // directory for the identity ledger and span dumps
	runs     int    // runs per workload in the all mode
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if opt.workload == allWorkloads {
		if err := runAll(opt, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.correct() {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or "+allWorkloads)
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 20, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	fs.IntVar(&opt.runs, "runs", 3, "runs per workload (all mode), seeds seed..seed+runs-1")
	fs.StringVar(&opt.state, "state", filepath.Join(".bench_build", "perfbench-state"), "state directory")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloadByName(opt.workload); !ok && opt.workload != allWorkloads {
		return opt, fmt.Errorf("unknown workload %q (valid: %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds < 1 || opt.runs < 1 {
		return opt, fmt.Errorf("--seconds and --runs must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	return opt, nil
}

// workload is one named benchmark input set. runIters measures the
// workload untraced for the options' window; traced adds the traced
// iteration, the engine replay and the layer probes.
type workload struct {
	name     string
	runIters func(opt options, window time.Duration, rep *runReport) error
	traced   func(opt options, rep *runReport) error
}

var benchWorkloads = []workload{
	{name: "paper-flat", runIters: paperFlat.runIters, traced: paperFlat.traced},
	{name: "small-torus", runIters: smallTorus.runIters, traced: smallTorus.traced},
	{name: "served-mixed", runIters: servedMixedRun, traced: servedMixedTraced},
}

func workloadNames() []string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run measures one workload. An untraced run fills the end-to-end
// metrics; a traced run first measures the untraced reference the trace
// overhead is taken against (half the window), then the traced pieces.
func run(opt options) (*runReport, error) {
	w, _ := workloadByName(opt.workload)
	rep := newRunReport(opt)
	window := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		window /= 2
	}
	if err := w.runIters(opt, window, rep); err != nil {
		return nil, err
	}
	if err := rep.checkLedger(opt); err != nil {
		return nil, err
	}
	if opt.trace {
		if err := w.traced(opt, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON line a run prints last.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport accumulates everything one run measures and checks.
type runReport struct {
	opt       options
	attempted int
	failed    int
	failures  []string // first few failure descriptions, for the summary

	// Per-iteration end-to-end samples. A request's latency percentiles
	// are taken per iteration (reqN requests each) and reported as the
	// median over iterations, like every other end-to-end metric.
	setup, wall, cpu, rss []float64
	reqP50, reqTail       []float64
	reqN                  int
	reqPct                float64
	reqExact              bool

	// ident is the first iteration's identity record; every later
	// iteration (and the traced one) must match it.
	ident *identity

	// iterOps is the operation count of one iteration, the count an
	// identity mismatch fails.
	iterOps int
	// Go runtime work per untraced iteration.
	allocMB, gcCycles []float64

	metrics map[string]metric // end-to-end
	layers  map[string]metric // per-layer (traced runs)
	notes   []string          // extra summary lines (spreads, tail rank, spans)
}

func newRunReport(opt options) *runReport {
	return &runReport{opt: opt, metrics: map[string]metric{}, layers: map[string]metric{}}
}

// fail counts n failed operations with a description.
func (r *runReport) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *runReport) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *runReport) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// observeIdentity compares one iteration's identity record with the
// first one the run saw.
func (r *runReport) observeIdentity(id *identity, ops int, what string) {
	if r.ident == nil {
		r.ident = id
		return
	}
	if diff := r.ident.diff(id); diff != "" {
		r.fail(ops, "%s identity differs from the first iteration: %s", what, diff)
	}
}

// addIteration records one timed iteration: its wall and CPU time and
// the latencies (ms) of the requests it served.
func (r *runReport) addIteration(wall, cpu time.Duration, reqMS []float64) {
	r.wall = append(r.wall, wall.Seconds())
	r.cpu = append(r.cpu, cpu.Seconds())
	r.reqP50 = append(r.reqP50, median(reqMS))
	tail, pct, exact := tailPercentile(reqMS)
	r.reqTail = append(r.reqTail, tail)
	r.reqN, r.reqPct, r.reqExact = len(reqMS), pct, exact
}

// finishEndToEnd turns the per-iteration samples into the end-to-end
// metrics (medians) and records their spreads.
func (r *runReport) finishEndToEnd() {
	r.set("setup_s", median(r.setup), "s")
	r.set("wall_s", median(r.wall), "s")
	r.set("cpu_s", median(r.cpu), "s")
	r.set("peak_rss_mb", median(r.rss), "MB")
	r.set("req_p50_ms", median(r.reqP50), "ms")
	r.set("req_tail_ms", median(r.reqTail), "ms")
	rule := "the highest percentile with at least 10 samples beyond"
	if !r.reqExact {
		rule = "the maximum: below 11 requests no percentile has 10 samples beyond"
	}
	r.notes = append(r.notes,
		spreadLine("setup_s", r.setup, "s"),
		spreadLine("wall_s", r.wall, "s"),
		spreadLine("cpu_s", r.cpu, "s"),
		spreadLine("peak_rss_mb", r.rss, "MB"),
		spreadLine("req_p50_ms", r.reqP50, "ms"),
		spreadLine("req_tail_ms", r.reqTail, "ms"),
		fmt.Sprintf("req_tail_ms: per iteration p%.2f of N=%d requests (%s)", r.reqPct, r.reqN, rule),
		fmt.Sprintf("samples wall_s=%s cpu_s=%s", fmtSamples(r.wall), fmtSamples(r.cpu)))
}

// measureLoop is the untraced measurement shared by every workload: set
// up and run timed iterations for as long as the next one, expected to
// take as long as the last, still ends inside the window (at least one),
// so a run never overshoots its window by a whole iteration. Each
// iteration is preceded by setupReps set-ups, the last of which it uses
// (discard releases the others); setup_s is the median of all of them,
// the run's first measured from process entry.
func measureLoop[T any](rep *runReport, window time.Duration, setup func() (T, error), discard func(T), iterate func(k int, in T) error) error {
	first := true
	start := time.Now()
	var last time.Duration
	for k := 0; k == 0 || time.Since(start)+last <= window; k++ {
		iterStart := time.Now()
		var in T
		for i := 0; i < setupReps; i++ {
			if i > 0 && discard != nil {
				discard(in)
			}
			t0 := time.Now()
			if first {
				t0, first = processStart, false
			}
			var err error
			if in, err = setup(); err != nil {
				return err
			}
			rep.setup = append(rep.setup, time.Since(t0).Seconds())
		}
		if err := iterate(k, in); err != nil {
			return err
		}
		last = time.Since(iterStart)
	}
	rep.finishEndToEnd()
	return nil
}

// print writes the human summary and, last, the one-line JSON result.
func (r *runReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d trace=%v\n",
		r.opt.workload, r.opt.seed, r.opt.seconds, r.opt.trace)
	for _, l := range hostRecord() {
		fmt.Fprintln(w, "host:", l)
	}
	for _, l := range r.notes {
		fmt.Fprintln(w, l)
	}
	if r.ident != nil {
		for _, l := range r.ident.lines() {
			fmt.Fprintln(w, "identity:", l)
		}
	}
	printMetrics(w, "end-to-end", r.metrics)
	printMetrics(w, "per-layer", r.layers)
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	out := runResult{r.correct(), r.attempted, r.failed, r.metrics}
	if r.opt.trace {
		out.Metrics = r.layers
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, ",")
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-28s %16.6f %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// hostRecord names what the numbers were measured on: cross-host
// comparisons of host-time metrics are meaningless without it.
func hostRecord() []string {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return []string{
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		"cpu=" + cpuModel,
	}
}
