package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the sample median; 0 when there are no samples, so every
// reported value stays a finite JSON number.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method); one sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentile applies the tail rule: report the highest percentile that
// has at least ten samples beyond it. With n sorted samples that is the
// value at rank n-10 (ten samples strictly above it), the
// 100·(n-10)/n-th percentile. Below 11 samples no percentile qualifies;
// the maximum is returned with exact=false so the caller can say so.
func tailPercentile(xs []float64) (value, pct float64, exact bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, false
	}
	if n < 11 {
		return s[n-1], 100, false
	}
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// spreadLine records a sample set's median and quartiles for the summary.
func spreadLine(name string, xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("spread %-12s n=%-5d median=%.6g q1=%.6g q3=%.6g %s",
		name, len(xs), median(xs), q1, q3, unit)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the process's peak resident set size over one
// iteration by sampling /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop chan struct{}
	done chan int64 // the peak in bytes, sent once when stopped
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		peak := residentBytes()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentBytes())
				return
			case <-t.C:
				peak = max(peak, residentBytes())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the iteration's peak RSS in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	return float64(<-s.done) / (1 << 20)
}

var pageSize = int64(os.Getpagesize())

// residentBytes reads the process's current RSS (0 when unavailable).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * pageSize
}
