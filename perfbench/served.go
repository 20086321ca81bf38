package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/sweepd"
)

// The served-mixed workload: an in-process sweepd on a loopback listener,
// driven in a closed loop by two clients, each sending its next request
// only after reading the previous reply (as `ccdpbench -server` callers
// do). Every request carries one small-scale single-app JobSpec.
//
// The mix is fixed by construction, not drawn by popularity, so every
// seed has the same shares and the same cost classes:
//
//   - each client owns two machines, and the two clients together cover
//     both topologies on both profiles. No spec and no compiled program is
//     shared between clients, so every memo and compile-cache hit count
//     is fixed by the mix, whatever the interleaving;
//   - per (app, machine) shape a client sends four cold requests: a
//     never-seen spec (PEs 2,8), one with overlapping PE counts (8,16)
//     that reuses compiled programs, the first spec again with faults
//     injected under a new fault seed (reuses every compiled program), and
//     a never-seen faulted spec (PEs 4);
//   - every other request repeats one of the client's own earlier cold
//     specs exactly: a memo hit, answered after its original completed.
//
// The seed chooses the fault seeds, the order of the cold requests, the
// positions of the cold requests in each stream and which earlier spec
// each repeat names.
const (
	streamLen   = 200 // requests per client per iteration
	faultRate   = 0.01
	clientCount = 2
)

var servedApps = []string{"MXM", "VPENTA", "TOMCATV", "SWIM"}

var clientMachines = [clientCount][]machineConfig{
	{{"t3d", "flat"}, {"cxl-pcc", "torus"}},
	{{"t3d", "torus"}, {"cxl-pcc", "flat"}},
}

// request is one generated request. idx numbers the distinct specs of a
// stream set (a repeat carries the idx of the request it repeats); of is
// the stream position a repeat repeats, -1 for a cold request.
type request struct {
	spec sweepd.JobSpec
	kind string // fresh, overlap, reseed, fresh-fault or repeat
	of   int
	idx  int
}

func (r request) shape() string {
	return r.spec.App + "/" + r.spec.Profile + "/" + r.spec.Topology
}

// generate builds the two clients' request streams for a seed.
func generate(seed int64) [][]request {
	rng := rand.New(rand.NewSource(seed))
	streams := make([][]request, clientCount)
	idx := 0
	for c := range streams {
		var cold []request
		for _, m := range clientMachines[c] {
			for _, app := range servedApps {
				base := sweepd.JobSpec{App: app, Scale: "small", Profile: m.profile, Topology: m.topology}
				fresh, overlap, reseed, freshFault := base, base, base, base
				fresh.PEs = []int{2, 8}
				overlap.PEs = []int{8, 16}
				reseed.PEs = []int{2, 8}
				reseed.FaultRate, reseed.FaultSeed = faultRate, 1+rng.Int63n(1<<30)
				freshFault.PEs = []int{4}
				freshFault.FaultRate, freshFault.FaultSeed = faultRate, 1+rng.Int63n(1<<30)
				cold = append(cold,
					request{spec: fresh, kind: "fresh"},
					request{spec: overlap, kind: "overlap"},
					request{spec: reseed, kind: "reseed"},
					request{spec: freshFault, kind: "fresh-fault"})
			}
		}
		rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
		orderFreshFirst(cold)

		// Cold requests take position 0 and a seeded choice of the rest;
		// every other position repeats an earlier cold request.
		isCold := make([]bool, streamLen)
		isCold[0] = true
		for _, p := range rng.Perm(streamLen - 1)[:len(cold)-1] {
			isCold[p+1] = true
		}
		var issued []int // stream positions of cold requests so far
		s := make([]request, streamLen)
		next := 0
		for p := range s {
			if isCold[p] {
				s[p] = cold[next]
				s[p].of, s[p].idx = -1, idx
				next++
				idx++
				issued = append(issued, p)
				continue
			}
			orig := issued[rng.Intn(len(issued))]
			s[p] = request{spec: s[orig].spec, kind: "repeat", of: orig, idx: s[orig].idx}
		}
		streams[c] = s
	}
	return streams
}

// orderFreshFirst makes every shape's never-seen "fresh" request the
// first of its shape, so the compile-sharing requests follow the programs
// they share.
func orderFreshFirst(cold []request) {
	pos := map[string]int{}
	for i, r := range cold {
		if r.kind == "fresh" {
			pos[r.shape()] = i
		}
	}
	seen := map[string]bool{}
	for i := range cold {
		sh := cold[i].shape()
		if !seen[sh] && cold[i].kind != "fresh" {
			j := pos[sh]
			cold[i], cold[j] = cold[j], cold[i]
			pos[sh] = i
		}
		seen[sh] = true
	}
}

// distinct lists the cold requests of a stream set in idx order (generate
// numbers them in stream order).
func distinct(streams [][]request) []request {
	var out []request
	for _, s := range streams {
		for _, r := range s {
			if r.of < 0 {
				out = append(out, r)
			}
		}
	}
	return out
}

func specLabel(s sweepd.JobSpec) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// liveServer is an in-process sweepd serving its Handler on a loopback
// listener.
type liveServer struct {
	srv  *sweepd.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve has returned
}

// httpc is the clients' transport: at most one connection per client.
var httpc = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: clientCount,
	MaxConnsPerHost:     clientCount,
}}

// startServer builds the server, starts its listener and returns once the
// first /healthz has answered 200.
func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:  sweepd.NewServer(sweepd.Options{}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	resp, err := httpc.Get(ls.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

// close stops the listener, waits for Serve to return, then stops the
// sweepd workers.
func (ls *liveServer) close() {
	ls.hs.Close()
	<-ls.done
	ls.srv.Close()
	httpc.Transport.(*http.Transport).CloseIdleConnections()
}

func (ls *liveServer) stats() (sweepd.ServerStats, error) {
	return (&sweepd.Client{Base: ls.base, HTTP: httpc}).Stats()
}

// served is one request's outcome as its client saw it.
type served struct {
	latency time.Duration // send to the last NDJSON row read
	memo    bool
	result  []byte // the row's result bytes
	err     string // non-empty: the request failed
}

// post sends one single-spec sweep request and reads the whole NDJSON
// reply.
func post(base string, spec sweepd.JobSpec) served {
	body, err := json.Marshal(sweepd.SweepRequest{Jobs: []sweepd.JobSpec{spec}})
	if err != nil {
		return served{err: err.Error()}
	}
	t0 := time.Now()
	resp, err := httpc.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return served{err: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := served{latency: time.Since(t0)}
	switch {
	case err != nil:
		s.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(data))
	default:
		var rows []sweepd.SweepRow
		dec := json.NewDecoder(bytes.NewReader(data))
		for dec.More() {
			var row sweepd.SweepRow
			if err := dec.Decode(&row); err != nil {
				s.err = "decoding row: " + err.Error()
				return s
			}
			rows = append(rows, row)
		}
		switch {
		case len(rows) != 1:
			s.err = fmt.Sprintf("%d rows for 1 job", len(rows))
		case rows[0].Index != 0:
			s.err = fmt.Sprintf("row index %d", rows[0].Index)
		case rows[0].Error != "":
			s.err = "row error: " + rows[0].Error
		case len(rows[0].Result) == 0:
			s.err = "row without a result"
		default:
			s.memo, s.result = rows[0].Memo, rows[0].Result
		}
	}
	return s
}

// serveStreams runs one closed-loop client per stream and returns each
// request's outcome, indexed like the streams. With a tracer every request
// is a "sweepd.request" span carrying its own request id.
func serveStreams(base string, streams [][]request, tr *tracer) [][]served {
	out := make([][]served, len(streams))
	var wg sync.WaitGroup
	firstReq := 1 // request ids number every stream's requests in turn
	for c := range streams {
		out[c] = make([]served, len(streams[c]))
		wg.Add(1)
		go func(c, firstReq int) {
			defer wg.Done()
			for i, r := range streams[c] {
				if tr == nil {
					out[c][i] = post(base, r.spec)
					continue
				}
				id, _ := tr.begin("sweepd.request", 0, firstReq+i)
				out[c][i] = post(base, r.spec)
				tr.finish(id)
			}
		}(c, firstReq)
		firstReq += len(streams[c])
	}
	wg.Wait()
	return out
}

// mixedInputs is one served-mixed set-up's product.
type mixedInputs struct {
	streams [][]request
	ls      *liveServer
}

// mixedSetup generates the request streams, builds the server, starts the
// listener and waits for the first /healthz 200.
func mixedSetup(seed int64) (*mixedInputs, error) {
	streams := generate(seed)
	ls, err := startServer()
	if err != nil {
		return nil, err
	}
	return &mixedInputs{streams: streams, ls: ls}, nil
}

// refereeServed checks one iteration's replies: every request answered
// 200 with its one row and no row error, no point with oracle violations
// or stale reads, and every repeat byte-identical to its first serve. It
// returns the distinct results in idx order.
func refereeServed(streams [][]request, got [][]served, rep *runReport, what string) []*harness.AppResult {
	var results []*harness.AppResult
	byIdx := map[int]*harness.AppResult{}
	for c, s := range streams {
		for i, r := range s {
			g := got[c][i]
			rep.attempted++
			if g.err != "" {
				rep.fail(1, "%s client %d request %d %s: %s", what, c, i, specLabel(r.spec), g.err)
				continue
			}
			if r.of >= 0 {
				if first := got[c][r.of]; first.err == "" && !bytes.Equal(first.result, g.result) {
					rep.fail(1, "%s client %d request %d: repeat of request %d served different bytes", what, c, i, r.of)
				}
				continue
			}
			var ar harness.AppResult
			if err := json.Unmarshal(g.result, &ar); err != nil {
				rep.fail(1, "%s client %d request %d: decoding result: %v", what, c, i, err)
				continue
			}
			refereeRows(&ar, rep, fmt.Sprintf("%s %s", what, specLabel(r.spec)))
			byIdx[r.idx] = &ar
		}
	}
	for _, r := range distinct(streams) {
		if ar := byIdx[r.idx]; ar != nil {
			results = append(results, ar)
		}
	}
	return results
}

// servedIteration runs one timed closed-loop iteration on a set-up's
// server and referees it. The server is closed afterwards.
func servedIteration(in *mixedInputs, rep *runReport, tr *tracer, what string) (got [][]served, wall time.Duration, st sweepd.ServerStats, err error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := startRSS()
	t0, c0 := time.Now(), cpuTime()
	got = serveStreams(in.ls.base, in.streams, tr)
	wall, cpu := time.Since(t0), cpuTime()-c0
	peak := rss.finish()
	if tr == nil {
		rep.rss = append(rep.rss, peak)
		rep.observeRuntime(&ms0)
		var reqMS []float64
		for _, g := range got {
			for _, s := range g {
				reqMS = append(reqMS, float64(s.latency)/float64(time.Millisecond))
			}
		}
		rep.addIteration(wall, cpu, reqMS)
	}
	st, err = in.ls.stats()
	in.ls.close()
	if err != nil {
		return nil, 0, st, err
	}
	results := refereeServed(in.streams, got, rep, what)
	rep.iterOps = clientCount * streamLen
	id := 0
	if tr != nil {
		id, _ = tr.begin("report.CSV", 0, 0)
	}
	csv := report.CSV(results)
	if tr != nil {
		tr.finish(id)
	}
	rep.observeIdentity(newIdentity(csv, results), rep.iterOps, what)
	return got, wall, st, nil
}

// servedMixedRun is the untraced measurement (see measureLoop).
func servedMixedRun(opt options, window time.Duration, rep *runReport) error {
	setup := func() (*mixedInputs, error) { return mixedSetup(opt.seed) }
	discard := func(in *mixedInputs) { in.ls.close() }
	return measureLoop(rep, window, setup, discard, func(k int, in *mixedInputs) error {
		_, _, _, err := servedIteration(in, rep, nil, fmt.Sprintf("iteration %d", k))
		return err
	})
}

// servedMixedTraced is the per-layer run: one traced iteration, the
// service's own /v1/stats, JobSpec.Resolve timed per distinct spec, and an
// in-process harness.RunApp of every distinct spec — which must equal the
// served bytes — whose compiled programs are then replayed.
func servedMixedTraced(opt options, rep *runReport) error {
	tr := newTracer()
	id, _ := tr.begin("driver.Apps", 0, 0)
	_, err := driver.Apps(strings.Join(servedApps, ","), "small")
	tr.finish(id)
	if err != nil {
		return err
	}
	in, err := mixedSetup(opt.seed)
	if err != nil {
		return err
	}
	got, tracedWall, st, err := servedIteration(in, rep, tr, "traced iteration")
	if err != nil {
		return err
	}
	var all []served
	for _, g := range got {
		all = append(all, g...)
	}
	cold := distinct(in.streams)
	specs := make([]sweepd.JobSpec, len(cold))
	firstServe := map[int][]byte{}
	for c, s := range in.streams {
		for i, r := range s {
			if r.of < 0 {
				firstServe[r.idx] = got[c][i].result
			}
		}
	}
	for i, r := range cold {
		specs[i] = r.spec
	}
	probe := newProbeStats(all, st, resolveTimes(specs, tr))

	var runs []*appRun
	var results []*harness.AppResult
	for _, r := range cold {
		job, err := r.spec.Resolve()
		if err != nil {
			rep.fail(1, "in-process %s: %v", specLabel(r.spec), err)
			continue
		}
		run, err := tr.runApp(job.Spec, job.Cfg, 0, 0)
		runs = append(runs, run)
		if err != nil {
			rep.fail(1, "in-process %s: %v", specLabel(r.spec), err)
			continue
		}
		results = append(results, run.res)
		b, err := json.Marshal(run.res)
		if err != nil || !bytes.Equal(b, firstServe[r.idx]) {
			rep.fail(1, "served %s differs from the in-process RunApp result", specLabel(r.spec))
		}
	}
	rs := replay(runs, rep)
	build, _ := tr.total("driver.Apps")
	rep.layerMetrics(layerInputs{
		tr: tr, replay: rs, probe: probe, results: results,
		build: build, tracedWall: tracedWall,
	})
	return rep.dumpTrace(tr)
}

// probeStats is what the sweepd layer reports.
type probeStats struct {
	hitP50, missP50 float64 // ms
	resolveMedianUS float64
	st              sweepd.ServerStats
}

func newProbeStats(all []served, st sweepd.ServerStats, resolve []float64) *probeStats {
	var hits, misses []float64
	for _, s := range all {
		ms := float64(s.latency) / float64(time.Millisecond)
		if s.memo {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	return &probeStats{hitP50: median(hits), missP50: median(misses), resolveMedianUS: median(resolve), st: st}
}

// resolveTimes times JobSpec.Resolve — the admission step every request
// pays, workload IR build included — once per spec, in µs.
func resolveTimes(specs []sweepd.JobSpec, tr *tracer) []float64 {
	out := make([]float64, 0, len(specs))
	for i := range specs {
		id, t0 := tr.begin("sweepd.Resolve", 0, 0)
		_, err := specs[i].Resolve()
		tr.finish(id)
		if err == nil {
			out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return out
}
