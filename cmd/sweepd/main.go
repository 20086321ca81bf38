// Command sweepd runs the persistent simulation service: an HTTP/JSON
// server that keeps compiled programs, their engine pools and finished
// sweep results warm across requests, so repeated and overlapping sweeps
// are served from the content-addressed memo instead of re-simulated.
//
// Endpoints:
//
//	POST /v1/sweep   batch of sweep points; NDJSON rows stream back in
//	                 canonical request order
//	GET  /v1/stats   memo / compile-cache / queue counters as JSON
//	GET  /healthz    liveness probe
//
// A fleet of sweepd processes shards large requests: give the front
// process -forward with the peers' base URLs and it splits any request
// larger than -shard-size into contiguous shards, spreads them round-robin
// across itself and the peers, and merges the streams back into canonical
// order (forwarded shards are marked no_forward, so workers never
// re-shard).
//
// SIGINT or SIGTERM shuts the server down gracefully: it stops accepting
// connections, lets every in-flight sweep finish streaming its rows, then
// drains the job queue and exits. A second signal kills it at once.
//
// Usage:
//
//	sweepd [-addr 127.0.0.1:8077] [-memo-entries N] [-compile-entries N]
//	       [-sweep-workers N] [-forward URL1,URL2] [-shard-size N]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/driver"
	"repro/internal/sweepd"
)

const tool = "sweepd"

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address")
	memoEntries := flag.Int("memo-entries", 0, "result-memo capacity in entries (0 = default)")
	compileEntries := flag.Int("compile-entries", 0, "compiled-program cache capacity in entries (0 = default)")
	workers := flag.Int("sweep-workers", 0, "concurrent job workers (0 = GOMAXPROCS); extra workers share the process-wide parallel budget")
	forward := flag.String("forward", "", "comma-separated peer sweepd base URLs to shard large requests across")
	shardSize := flag.Int("shard-size", 64, "sweep points per forwarded shard")
	pf := driver.RegisterProf(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		driver.Fatal(tool, err)
	}
	defer stopProf()

	var peers []string
	if *forward != "" {
		for _, p := range strings.Split(*forward, ",") {
			p = strings.TrimRight(strings.TrimSpace(p), "/")
			if p != "" {
				peers = append(peers, p)
			}
		}
	}
	srv := sweepd.NewServer(sweepd.Options{
		MemoEntries:    *memoEntries,
		CompileEntries: *compileEntries,
		Workers:        *workers,
		Peers:          peers,
		ShardSize:      *shardSize,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		driver.Fatal(tool, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal, restore the default handling so a second one
	// terminates a shutdown that is waiting on a long sweep.
	context.AfterFunc(ctx, stop)
	fmt.Fprintf(os.Stderr, "%s: listening on %s\n", tool, ln.Addr())
	if err := serve(ctx, ln, srv.Handler()); err != nil {
		driver.Fatal(tool, err)
	}
	fmt.Fprintf(os.Stderr, "%s: shut down\n", tool)
}

// serve runs the HTTP surface on ln until ctx is done, then shuts down
// gracefully: the listener closes at once and serve returns only after
// every in-flight request has completed.
func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{
		Handler: h,
		// A client must send its request headers promptly and may not
		// hold an idle keep-alive connection open indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// No WriteTimeout: /v1/sweep streams its rows for as long as the
		// sweep runs (minutes for a cold paper-scale sweep), and a write
		// deadline would cut such a response off mid-stream.
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
