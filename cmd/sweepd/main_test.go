package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"

	"repro/internal/sweepd"
)

// Cancelling serve's context while a sweep streams must let that sweep
// finish with every row, return nil, and refuse new connections.
func TestServeShutdownDrainsInFlightSweep(t *testing.T) {
	srv := sweepd.NewServer(sweepd.Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	// arrived fires once the sweep request is inside the handler, so the
	// shutdown below is known to race a live request, not an empty server.
	arrived := make(chan struct{})
	var once sync.Once
	h := srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sweep" {
			once.Do(func() { close(arrived) })
		}
		h.ServeHTTP(w, r)
	})

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, wrapped) }()

	specs := []sweepd.JobSpec{
		{App: "MXM", Scale: "small", PEs: []int{1, 2, 4}},
		{App: "VPENTA", Scale: "small", PEs: []int{1, 2, 4}},
	}
	type result struct {
		rows int
		err  error
	}
	swept := make(chan result, 1)
	go func() {
		ars, _, err := (&sweepd.Client{Base: base}).Sweep(specs)
		swept <- result{len(ars), err}
	}()

	<-arrived
	cancel()
	res := <-swept
	if res.err != nil || res.rows != len(specs) {
		t.Fatalf("in-flight sweep during shutdown: %d rows, err %v; want %d rows", res.rows, res.err, len(specs))
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v after a graceful shutdown", err)
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("server still accepts connections after shutdown")
	}
}
