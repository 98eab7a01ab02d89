// Command chimerad serves the Chimera pipeline as a sharded,
// multi-tenant HTTP job service (internal/service): submit analyze
// (including `racecheck -gen` scenario runs), record, or replay-verify
// jobs; poll or long-poll results; stream CHIMLOG2 logs in and out; scrape Prometheus text
// exposition at /metrics (the JSON snapshot lives at /metrics.json);
// fetch recent per-request span trees at /debug/traces. Every analyze
// verdict is byte-identical to the offline `racecheck` CLI on the same
// request — both front ends execute the single service.RunRequest path.
//
// Job lifecycle and drain events are logged as structured JSON lines
// on stderr (-log-level selects the threshold; "off" silences them).
// -ops-addr starts a second listener serving net/http/pprof for live
// profiling, kept off the request port so profiling exposure is an
// explicit operator decision.
//
// On SIGTERM/SIGINT the server drains gracefully: admission stops
// (submissions get 503), in-flight jobs run to completion bounded by
// -job-timeout, a final metrics snapshot is logged, and the process
// exits once the queues are empty or -drain-timeout expires.
//
// Usage:
//
//	chimerad                                  # listen on localhost:8377
//	chimerad -addr :9000 -shards 8            # wider pool on all interfaces
//	chimerad -spool /var/tmp/chimera          # keep CHIMLOG2 spools here
//	chimerad -ops-addr localhost:8378         # pprof on a separate port
//	racecheck -server http://localhost:8377 -mhp prog.mc
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is main's testable body: flags come from args, output goes to the
// given writers, and shutdown arrives on sig — so tests can boot a real
// server on an ephemeral port and deliver a synthetic SIGTERM.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("chimerad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "localhost:8377", "listen address")
		opsAddr      = fs.String("ops-addr", "", "ops listen address serving net/http/pprof (empty: profiling off)")
		shards       = fs.Int("shards", runtime.NumCPU(), "worker shard count (jobs route by spec hash)")
		depth        = fs.Int("depth", 256, "per-shard queue capacity")
		jobTimeout   = fs.Duration("job-timeout", 2*time.Minute, "per-job execution bound")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful drain bound on SIGTERM")
		spool        = fs.String("spool", "", "CHIMLOG2 spool directory (default: a fresh temp dir, removed on exit)")
		logLevel     = fs.String("log-level", "info", "structured log threshold: debug|info|warn|error|off")
		traceRing    = fs.Int("trace-ring", 64, "recent job traces retained for /debug/traces")
	)
	if err := fs.Parse(args); err != nil {
		return service.ExitUsage
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return service.ExitUsage
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "chimerad:", err)
		return service.ExitUsage
	}
	lg := obs.NewLogger(stderr, level)

	dir := *spool
	if dir == "" {
		d, err := os.MkdirTemp("", "chimerad-spool-")
		if err != nil {
			fmt.Fprintln(stderr, "chimerad:", err)
			return service.ExitFailure
		}
		defer os.RemoveAll(d)
		dir = d
	}

	eng := service.NewEngine(service.EngineConfig{
		Shards:     *shards,
		Depth:      *depth,
		SpoolDir:   dir,
		JobTimeout: *jobTimeout,
		Logger:     lg,
		TraceRing:  *traceRing,
	})
	srv := &http.Server{Handler: service.NewServer(eng)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "chimerad:", err)
		return service.ExitFailure
	}
	// The listening line is the readiness signal scripts wait for.
	fmt.Fprintf(stdout, "chimerad: listening on http://%s (shards=%d, depth=%d, spool=%s)\n",
		ln.Addr(), *shards, *depth, dir)

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "chimerad:", err)
			return service.ExitFailure
		}
		// A dedicated mux: the ops listener serves profiling and nothing
		// else, and the request listener never exposes pprof.
		opsMux := http.NewServeMux()
		opsMux.HandleFunc("/debug/pprof/", pprof.Index)
		opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		opsSrv = &http.Server{Handler: opsMux}
		go opsSrv.Serve(opsLn)
		fmt.Fprintf(stdout, "chimerad: ops listening on http://%s (pprof)\n", opsLn.Addr())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Fprintf(stderr, "chimerad: %v: draining (timeout %s)...\n", s, *drainTimeout)
		lg.Info("drain_begin", obs.Str("signal", s.String()), obs.Str("timeout", drainTimeout.String()))
	case err := <-errCh:
		fmt.Fprintln(stderr, "chimerad: serve:", err)
		return service.ExitFailure
	}

	drained := eng.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if opsSrv != nil {
		opsSrv.Shutdown(ctx)
	}

	// The final snapshot line: everything the server knew at exit, as
	// one JSON log record scripts and post-mortems can parse.
	if snap, err := json.Marshal(eng.Metrics()); err == nil {
		lg.Info("final_metrics", obs.RawJSON("metrics", snap))
	}

	if !drained {
		fmt.Fprintln(stderr, "chimerad: drain timed out; abandoning queued jobs")
		lg.Error("drain_timeout")
		return service.ExitFailure
	}
	fmt.Fprintln(stderr, "chimerad: drained cleanly")
	lg.Info("drain_complete")
	return service.ExitOK
}
