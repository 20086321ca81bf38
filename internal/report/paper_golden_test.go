//go:build !race

package report_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/workloads"
)

// paperGoldenCSV pins the headline reproduction: the exact CSV that
// `ccdpbench -scale paper -apps MXM,VPENTA -csv` emits for the paper's
// Table 1/2 rows on the flat T3D at PEs 1..64. Every cycle count is
// deterministic, so any change here is a change of the simulated machine
// or of the compiler, never of the host. Race builds compile the skipping
// stand-in in paper_golden_race_test.go instead (instrumented, the sweep
// takes about a minute on two cores); CI runs this one in a plain build.
const paperGoldenCSV = `app,pes,seq_cycles,base_cycles,ccdp_cycles,base_speedup,ccdp_speedup,improvement_pct,drops,late,demotions,oracle_violations,attempts
MXM,1,35345827,51755324,35351077,0.6829,0.9999,31.6958,0,0,0,0,1
MXM,2,35345827,176959056,17740267,0.1997,1.9924,89.9749,0,0,140092,0,1
MXM,4,35345827,88562128,8920621,0.3991,3.9623,89.9273,0,0,139904,0,1
MXM,8,35345827,44363664,4510798,0.7967,7.8358,89.8322,0,0,139528,0,1
MXM,16,35345827,22264432,2306266,1.5875,15.3260,89.6415,0,0,138760,0,1
MXM,32,35345827,11214816,1204693,3.1517,29.3401,89.2580,0,0,137472,0,1
MXM,64,35345827,5690008,653868,6.2119,54.0565,88.5085,0,0,134664,0,1
VPENTA,1,11921664,12853044,11923014,0.9275,0.9999,7.2359,0,0,0,0,1
VPENTA,2,11921664,6448752,5964162,1.8487,1.9989,7.5145,0,0,0,0,1
VPENTA,4,11921664,3245616,2983746,3.6732,3.9955,8.0684,0,0,0,0,1
VPENTA,8,11921664,1644048,1493538,7.2514,7.9822,9.1548,0,0,0,0,1
VPENTA,16,11921664,843264,732418,14.1375,16.2771,13.1449,0,0,0,0,1
VPENTA,32,11921664,442872,367181,26.9190,32.4681,17.0909,0,0,0,0,1
VPENTA,64,11921664,242676,184909,49.1258,64.4731,23.8042,0,0,0,0,1
`

// TestPaperScaleGoldenCSV runs the paper-scale MXM and VPENTA sweeps at
// the paper's PE counts and asserts the rendered CSV is byte-identical to
// the golden capture.
func TestPaperScaleGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep in -short mode")
	}
	var results []*harness.AppResult
	for _, name := range []string{"MXM", "VPENTA"} {
		ar, err := harness.RunApp(workloads.ByName(name), harness.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results = append(results, ar)
	}
	got := report.CSV(results)
	if got == paperGoldenCSV {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(paperGoldenCSV, "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("paper-scale CSV diverges from the golden at line %d:\n got: %s\nwant: %s", i+1, g, wantLines[i])
		}
	}
	t.Fatalf("paper-scale CSV has %d lines, golden has %d", len(gotLines), len(wantLines))
}
