// Command expd is the distributed experiment daemon: an HTTP front-end
// over the memoising experiments.Runner (DESIGN.md §13). Clients (the
// other binaries with -server) post fully keyed run requests; expd
// deduplicates them through the same in-memory memo and persistent
// store layers local runs use, simulates misses, and returns verified
// result envelopes. The full scale travels inside every request (its
// fingerprint is part of the run key), so one daemon serves clients of
// any scale without aliasing. SIGINT/SIGTERM drains: in-flight
// simulations complete and are served, new requests get 503, then
// store stats are flushed.
//
// Usage:
//
//	expd [-addr 127.0.0.1:9190] [-addr-file FILE] [-cache-dir DIR]
//	     [-max-concurrent N] [-drain-timeout 30s]
//	     [-checkpoint-dir DIR] [-checkpoint-every N]
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
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9190", "listen address (host:0 picks a free port)")
	addrFile := flag.String("addr-file", "",
		"write the bound address to this file once listening (for -addr with port 0)")
	maxConcurrent := flag.Int("max-concurrent", cliutil.DefaultWorkers(),
		"run requests executing simultaneously (the rest queue)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for in-flight requests before giving up")
	persist := cliutil.PersistenceFlags("expd")
	flag.Parse()

	mc, err := cliutil.Workers(*maxConcurrent)
	if err != nil {
		fatal(fmt.Errorf("invalid -max-concurrent=%d: must be >= 1", *maxConcurrent))
	}
	if err := persist.Open(); err != nil {
		fatal(err)
	}

	srv := service.NewServer(service.ServerOptions{
		MaxConcurrent: mc, Store: persist.Results, Checkpoints: persist.Checkpoints,
		Logf: cliutil.Logf("expd"),
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "expd: serving on http://%s (cache-dir=%q)\n", bound, persist.CacheDir)

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "expd: %v — draining (in-flight requests complete; again to force)\n", sig)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			fmt.Fprintln(os.Stderr, "expd: second signal — forcing exit")
			cancel()
		}()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "expd: drain incomplete: %v\n", err)
		}
		cancel()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}

	// Whatever path got us here, print the stores' stats on stderr for
	// the operator.
	persist.Close()
	p := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "expd: served %d requests (%d completed, %d failed), %d simulations\n",
		p.Requests, p.RunsCompleted, p.RunsFailed, p.SimulationsStarted)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "expd:", err)
	os.Exit(1)
}
