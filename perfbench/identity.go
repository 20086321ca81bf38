package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/harness"
	"repro/internal/stats"
)

// simNames are the simulated counters of the identity record, in report
// order. They are sums over every (app, mode, PEs) point of the workload's
// output, so they must repeat exactly on every run of unchanged
// simulation code.
var simNames = []string{
	"exec.sim_cycles",
	"exec.sim_refs",
	"cache.hits",
	"cache.misses",
	"cache.invalidated_lines",
	"pfq.prefetch_issued",
	"pfq.prefetch_dropped",
	"shmem.remote_reads",
	"noc.messages",
	"noc.wait_cycles",
	"noc.contended",
	"noc.drops",
}

// simRefs is the engine's reference-event count: the sum of every
// read/write outcome counter. It is the work unit exec.ns_per_ref divides
// host time by, not an exact count of source references.
func simRefs(s *stats.Stats) int64 {
	return s.RegisterHits + s.Hits + s.Misses + s.LocalReads + s.RemoteReads +
		s.BypassReads + s.NonCachedRefs + s.LocalWrites + s.RemoteWrites
}

// identity is what a run's output must reproduce exactly: the SHA-256 of
// the rendered CSV and every simulated counter.
type identity struct {
	CSV string           `json:"csv_sha256"`
	Sim map[string]int64 `json:"sim"`
}

func newIdentity(csv string, results []*harness.AppResult) *identity {
	sum := sha256.Sum256([]byte(csv))
	var st stats.Stats
	var cycles int64
	for _, ar := range results {
		cycles += ar.SeqCycles
		for i := range ar.Rows {
			r := &ar.Rows[i]
			cycles += r.BaseCycles + r.CCDPCycles
			st.Merge(&r.BaseStats)
			st.Merge(&r.CCDPStats)
		}
	}
	return &identity{
		CSV: hex.EncodeToString(sum[:]),
		Sim: map[string]int64{
			"exec.sim_cycles":         cycles,
			"exec.sim_refs":           simRefs(&st),
			"cache.hits":              st.Hits,
			"cache.misses":            st.Misses,
			"cache.invalidated_lines": st.InvalidatedLines,
			"pfq.prefetch_issued":     st.PrefetchIssued,
			"pfq.prefetch_dropped":    st.PrefetchDropped,
			"shmem.remote_reads":      st.RemoteReads,
			"noc.messages":            st.NetMessages,
			"noc.wait_cycles":         st.NetWaitCycles,
			"noc.contended":           st.NetContended,
			"noc.drops":               st.NetDrops,
		},
	}
}

// diff names the first field in which b differs from a ("" = identical).
func (a *identity) diff(b *identity) string {
	if a.CSV != b.CSV {
		return fmt.Sprintf("csv_sha256 %s != %s", b.CSV, a.CSV)
	}
	for _, n := range simNames {
		if a.Sim[n] != b.Sim[n] {
			return fmt.Sprintf("%s %d != %d", n, b.Sim[n], a.Sim[n])
		}
	}
	return ""
}

func (a *identity) lines() []string {
	out := []string{"csv_sha256=" + a.CSV}
	for _, n := range simNames {
		out = append(out, fmt.Sprintf("%s=%d", n, a.Sim[n]))
	}
	return out
}

// pinnedJSON pins the identity of the seed-independent sweep workloads:
// the paper-scale Table 1/2 output and the small torus sweep. A run whose
// output differs fails, so a change that moves any simulated statistic
// shows here.
//
//go:embed identity.json
var pinnedJSON []byte

func pinned(workload string) (*identity, bool) {
	var all map[string]*identity
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		panic(fmt.Sprintf("identity.json: %v", err)) // embedded at build time
	}
	id, ok := all[workload]
	return id, ok
}

// checkLedger compares the run's identity with the pinned record (sweeps)
// and with the first run of the same workload and seed in this checkout,
// whose record it writes when there is none yet. Every run of one seed —
// traced or not — must agree.
func (r *runReport) checkLedger(opt options) error {
	if r.ident == nil {
		return errors.New("no identity recorded")
	}
	if want, ok := pinned(opt.workload); ok {
		if d := want.diff(r.ident); d != "" {
			r.fail(r.iterOps, "output differs from the pinned identity: %s", d)
		}
	}
	dir := filepath.Join(opt.state, "identity")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		var prev identity
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("identity ledger %s: %w", path, err)
		}
		if d := prev.diff(r.ident); d != "" {
			r.fail(r.iterOps, "output differs from an earlier run of this seed: %s", d)
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if r.failed > 0 {
			return nil // record only output that passed every check
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(r.ident, "", "  ")
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}
