package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

const allWorkloads = "all"

// runAll runs every workload opt.runs times, each run a fresh process of
// this binary, and prints every metric's median and quartiles over the
// runs with its unit, plus the attempted and failed operation counts. It
// returns an error when any run failed or reported a correctness failure.
func runAll(opt options, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	for _, l := range hostRecord() {
		fmt.Fprintln(w, "host:", l)
	}
	bad := 0
	for _, wl := range workloadNames() {
		values := map[string][]float64{}
		units := map[string]string{}
		attempted, failed := 0, 0
		for i := 0; i < opt.runs; i++ {
			seed := opt.seed + int64(i)
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(opt.seconds), "--trace", trace, "--state", opt.state)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			res, perr := lastJSON(out.Bytes())
			if runErr != nil || perr != nil || !res.Correct {
				bad++
				fmt.Fprintf(w, "%s seed %d FAILED: exit %v, result %v\n", wl, seed, runErr, perr)
				w.Write(out.Bytes())
				if perr != nil {
					continue
				}
			}
			attempted += res.Attempted
			failed += res.Failed
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q1, q3 := quartiles(values[n])
			fmt.Fprintf(w, "%-13s %-26s median=%-14.6g q1=%-14.6g q3=%-14.6g %s (runs=%d)\n",
				wl, n, median(values[n]), q1, q3, units[n], len(values[n]))
		}
		fmt.Fprintf(w, "%-13s operations attempted=%d failed=%d\n", wl, attempted, failed)
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed", bad)
	}
	return nil
}

// lastJSON decodes the last line of a run's standard output.
func lastJSON(out []byte) (runResult, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res runResult
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
