//go:build race

package report_test

import "testing"

// TestPaperScaleGoldenCSV is the race-build stand-in for the paper-scale
// golden (paper_golden_test.go): instrumented, the sweep takes about a
// minute on two cores, so race builds skip it and CI runs the real test in
// a plain build.
func TestPaperScaleGoldenCSV(t *testing.T) {
	t.Skip("paper-scale golden runs only without -race")
}
