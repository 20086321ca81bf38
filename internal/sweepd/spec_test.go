package sweepd

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func mustResolve(t *testing.T, js JobSpec) *Job {
	t.Helper()
	j, err := js.Resolve()
	if err != nil {
		t.Fatalf("Resolve(%+v): %v", js, err)
	}
	return j
}

// The memo key must not depend on the JSON field order a client happened
// to serialize — only on the resolved spec.
func TestKeyInvariantUnderJSONFieldOrder(t *testing.T) {
	a := `{"app":"MXM","scale":"small","pes":[1,2],"profile":"cxl-pcc","topology":"torus","fault_rate":0.01,"fault_seed":7}`
	b := `{"fault_seed":7,"topology":"torus","fault_rate":0.01,"pes":[1,2],"profile":"cxl-pcc","scale":"small","app":"MXM"}`
	var ja, jb JobSpec
	if err := json.Unmarshal([]byte(a), &ja); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &jb); err != nil {
		t.Fatal(err)
	}
	ka, kb := mustResolve(t, ja).Key, mustResolve(t, jb).Key
	if ka != kb {
		t.Fatalf("field order changed the key: %s vs %s", ka, kb)
	}
}

// Every spelling of the same simulation must land on the same key: default
// values written explicitly, case aliasing, fault-kind order and
// duplicates, and the whole disabled-fault block.
func TestKeyAliasInvariance(t *testing.T) {
	base := JobSpec{App: "MXM"}
	aliases := []struct {
		name string
		spec JobSpec
	}{
		{"canonical app casing", JobSpec{App: "mxm"}},
		{"explicit paper scale", JobSpec{App: "MXM", Scale: "paper"}},
		{"explicit t3d profile", JobSpec{App: "MXM", Profile: "t3d"}},
		{"upper-case profile", JobSpec{App: "MXM", Profile: "T3D"}},
		{"explicit flat topology", JobSpec{App: "MXM", Topology: "flat"}},
		{"explicit paper PE ladder", JobSpec{App: "MXM", PEs: []int{1, 2, 4, 8, 16, 32, 64}}},
		{"disabled fault ignores seed", JobSpec{App: "MXM", FaultSeed: 99}},
		{"disabled fault ignores kinds", JobSpec{App: "MXM", FaultKinds: "drop"}},
		{"disabled fault ignores retries", JobSpec{App: "MXM", FaultRetries: 7}},
	}
	want := mustResolve(t, base).Key
	for _, a := range aliases {
		if got := mustResolve(t, a.spec).Key; got != want {
			t.Errorf("%s: key %s != base %s", a.name, got, want)
		}
	}

	// Fault-kind list order and duplicates are canonicalized away; the
	// default retry budget is the same key as an explicit one.
	f1 := JobSpec{App: "MXM", FaultRate: 0.01, FaultKinds: "late,drop"}
	f2 := JobSpec{App: "MXM", FaultRate: 0.01, FaultKinds: "drop,late,drop"}
	f3 := JobSpec{App: "MXM", FaultRate: 0.01, FaultKinds: "late,drop", FaultRetries: 2}
	k1 := mustResolve(t, f1).Key
	if k2 := mustResolve(t, f2).Key; k2 != k1 {
		t.Errorf("kind order/dedup changed the key: %s vs %s", k2, k1)
	}
	if k3 := mustResolve(t, f3).Key; k3 != k1 {
		t.Errorf("explicit default retries changed the key: %s vs %s", k3, k1)
	}
}

// Every axis of the spec that changes simulation results must change the
// key. The reflection guard at the bottom fails when JobSpec grows a field
// this table does not cover — the reminder to extend appendCanonical.
func TestKeyDistinctAcrossEveryAxis(t *testing.T) {
	base := JobSpec{App: "MXM", FaultRate: 0.01}
	variants := map[string]JobSpec{
		"App":          {App: "SWIM", FaultRate: 0.01},
		"Scale":        {App: "MXM", Scale: "small", FaultRate: 0.01},
		"PEs":          {App: "MXM", PEs: []int{1, 2}, FaultRate: 0.01},
		"SkipBase":     {App: "MXM", SkipBase: true, FaultRate: 0.01},
		"Profile":      {App: "MXM", Profile: "cxl-pcc", FaultRate: 0.01},
		"DomainSize":   {App: "MXM", DomainSize: 4, FaultRate: 0.01},
		"Topology":     {App: "MXM", Topology: "torus", FaultRate: 0.01},
		"FaultRate":    {App: "MXM", FaultRate: 0.05},
		"FaultKinds":   {App: "MXM", FaultRate: 0.01, FaultKinds: "drop"},
		"FaultSeed":    {App: "MXM", FaultRate: 0.01, FaultSeed: 2},
		"FaultRetries": {App: "MXM", FaultRate: 0.01, FaultRetries: 9},
	}
	keys := map[Key]string{mustResolve(t, base).Key: "base"}
	for name, spec := range variants {
		k := mustResolve(t, spec).Key
		if prev, dup := keys[k]; dup {
			t.Errorf("axis %s collides with %s: key %s", name, prev, k)
		}
		keys[k] = name
	}

	rt := reflect.TypeOf(JobSpec{})
	if rt.NumField() != len(variants) {
		t.Errorf("JobSpec has %d fields but the distinctness table covers %d: "+
			"a new result-changing axis must be added to appendCanonical and this table",
			rt.NumField(), len(variants))
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown app", JobSpec{App: "NOPE"}, "valid applications"},
		{"unknown scale", JobSpec{App: "MXM", Scale: "huge"}, "valid scales"},
		{"unknown profile", JobSpec{App: "MXM", Profile: "cray-2"}, "valid profiles"},
		{"bad topology", JobSpec{App: "MXM", Topology: "ring"}, "topology"},
		{"bad fault kind", JobSpec{App: "MXM", FaultRate: 0.1, FaultKinds: "gremlin"}, "unknown kind"},
		{"bad PE count", JobSpec{App: "MXM", PEs: []int{4, 0}}, "PE count"},
		{"negative domain", JobSpec{App: "MXM", DomainSize: -1}, "domain"},
	}
	for _, c := range cases {
		_, err := c.spec.Resolve()
		if err == nil {
			t.Errorf("%s: Resolve accepted %+v", c.name, c.spec)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// The canonical encoding is the documented wire-stable format; pin its
// shape so accidental reordering (which would orphan every persisted key)
// fails loudly.
func TestCanonicalEncodingShape(t *testing.T) {
	j := mustResolve(t, JobSpec{App: "mxm", Scale: "small", PEs: []int{1, 2},
		Profile: "T3D", Topology: "2x2x1", FaultRate: 0.01, FaultKinds: "drop,late", FaultSeed: 3})
	want := "sweepd/v1|app=MXM|scale=small|pes=1,2|base=1|profile=t3d|domain=0|" +
		"topo=torus:2x2x1|fault=rate=0.01;kinds=drop,late;seed=3;retries=2"
	if j.canonical != want {
		t.Errorf("canonical encoding drifted:\n got %s\nwant %s", j.canonical, want)
	}
}
