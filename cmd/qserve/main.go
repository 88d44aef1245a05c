// Command qserve is queue-as-a-service: one LCRQ behind an HTTP/JSON front
// end with the resilience layer wired in (internal/resilience/server).
//
//	qserve -addr :8080 -capacity 65536
//
// Endpoints: POST /v1/enqueue, POST /v1/dequeue (long-polling), GET
// /healthz (503 once draining, for load balancers), GET /statsz, GET
// /metrics (Prometheus), GET /traces (recent item traces), POST
// /admin/drain, GET /admin/blackbox (flight-recorder dump). See DESIGN.md
// §12 for the wire protocol and the shed/drain state machine, §13 for the
// tracing and flight-recorder model.
//
// Observability wiring:
//
//   - Item tracing is on by default at 1-in-1024 sampling (-trace-sample; 0
//     disables, -1 stamps only client-forced trace IDs).
//   - A flight recorder runs always, keeping the last ~2 minutes of queue
//     state in a bounded ring. SIGQUIT dumps it to -blackbox-dir and keeps
//     serving; a watchdog alert or a panic dumps automatically; GET
//     /admin/blackbox serves the live window.
//   - -debug-addr starts a SEPARATE listener exposing net/http/pprof —
//     off by default and never mounted on the service port, so profiling
//     exposure is an explicit operator decision.
//
// SIGTERM or SIGINT begins the graceful drain: enqueues get 503
// immediately, in-flight accepts settle, the queue closes, consumers drain
// what remains under -drain-deadline, the listener shuts down, and the
// process exits 0 — or 1 when the deadline expired with items still queued
// (the orchestrator should know deliveries were abandoned).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"lcrq"
	"lcrq/internal/buildmeta"
	"lcrq/internal/flightrec"
	"lcrq/internal/resilience"
	"lcrq/internal/resilience/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		capacity      = flag.Int64("capacity", 0, "bound on queued items (0 = unbounded)")
		maxBatch      = flag.Int("max-batch", 1024, "values per request, at most")
		maxDeadline   = flag.Duration("max-deadline", 60*time.Second, "cap on client-requested waits")
		drainDeadline = flag.Duration("drain-deadline", 30*time.Second, "how long consumers get to empty the queue after SIGTERM")
		healthPoll    = flag.Duration("health-poll", 25*time.Millisecond, "shedder/drain-rate sampling interval")
		watchdog      = flag.Duration("watchdog", 50*time.Millisecond, "watchdog check interval (0 disables; disables shedding too)")
		recoverObs    = flag.Int("shed-recover", 2, "consecutive clean health polls before the shedder closes")
		dedupCap      = flag.Int("dedup", 65536, "idempotency-key cache size (<0 disables)")
		traceSample   = flag.Int("trace-sample", lcrq.DefaultTraceSampleN, "item-trace sampling stride: 1-in-N (0 off, -1 forced-only)")
		blackboxDir   = flag.String("blackbox-dir", ".", "directory for flight-recorder dumps (SIGQUIT, watchdog alerts, panics)")
		bboxInterval  = flag.Duration("blackbox-interval", flightrec.DefaultInterval, "flight-recorder frame cadence")
		debugAddr     = flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled)")
		quiet         = flag.Bool("quiet", false, "suppress lifecycle logging")
		version       = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()

	if *version {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildmeta.Collect())
		return
	}

	opts := []lcrq.Option{lcrq.WithTelemetry()}
	if *capacity > 0 {
		opts = append(opts, lcrq.WithCapacity(*capacity))
	}
	if *watchdog > 0 {
		opts = append(opts, lcrq.WithWatchdog(*watchdog))
	}
	switch {
	case *traceSample > 0:
		opts = append(opts, lcrq.WithTracing(*traceSample))
	case *traceSample < 0:
		opts = append(opts, lcrq.WithForcedTracingOnly())
	}
	q := lcrq.New(opts...)

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	var srv *server.Server
	rec := flightrec.New(flightrec.Config{
		Queue:    q,
		Interval: *bboxInterval,
		Dir:      *blackboxDir,
		Logf:     logf,
		Extra: func() map[string]any {
			if srv == nil {
				return nil
			}
			return map[string]any{"qserve_counters": srv.Counters().Snapshot()}
		},
	})
	defer rec.CapturePanic()

	srv = server.New(server.Config{
		Queue:         q,
		MaxBatch:      *maxBatch,
		MaxDeadline:   *maxDeadline,
		DrainDeadline: *drainDeadline,
		HealthPoll:    *healthPoll,
		Shed:          resilience.ShedConfig{RecoverObservations: *recoverObs},
		DedupCapacity: *dedupCap,
		Logf:          logf,
		Blackbox:      rec.Handler(),
	})

	// pprof rides a separate listener so the service port never exposes
	// profiling handlers; see README "Profiling qserve".
	if *debugAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logf("qserve: pprof on %s", *debugAddr)
			if err := (&http.Server{Addr: *debugAddr, Handler: dm}).ListenAndServe(); err != nil {
				logf("qserve: pprof listener: %v", err)
			}
		}()
	}

	// Shutdown waits for every connection that is not idle, and counts one
	// that was accepted but has not sent a request (StateNew) as busy until
	// it is 5 s old. Shutdown runs after the drain, when no accepted work is
	// left on such a connection, so close those once the listener is shut.
	// Active connections are left to finish: a dequeue response may still
	// be in flight.
	var (
		connMu   sync.Mutex
		newConns = make(map[net.Conn]bool)
	)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(),
		ConnState: func(c net.Conn, s http.ConnState) {
			connMu.Lock()
			defer connMu.Unlock()
			if s == http.StateNew {
				newConns[c] = true
			} else {
				delete(newConns, c)
			}
		}}
	hs.RegisterOnShutdown(func() {
		connMu.Lock()
		defer connMu.Unlock()
		for c := range newConns {
			c.Close()
		}
	})

	// Catch SIGTERM before serving: a signal that arrives once /healthz
	// answers must start the drain, not kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	logf("qserve: serving on %s (capacity %d, watchdog %v, trace 1-in-%d, commit %s)",
		*addr, *capacity, *watchdog, *traceSample, buildmeta.Collect().Commit)

	// SIGQUIT is the operator's black-box trigger: dump the flight recorder
	// and keep serving (unlike the Go runtime default of crashing with all
	// goroutine stacks).
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			if path, err := rec.WriteFile("sigquit"); err != nil {
				logf("qserve: SIGQUIT dump failed: %v", err)
			} else {
				logf("qserve: SIGQUIT — flight recorder dumped to %s", path)
			}
		}
	}()

	select {
	case err := <-errCh:
		log.Fatalf("qserve: listener: %v", err)
	case s := <-sig:
		logf("qserve: %v — draining", s)
	}

	// Graceful exit: drain the queue first (dequeues keep flowing through
	// the open listener), then shut the listener so in-flight responses
	// flush, then close.
	exit := 0
	if err := srv.Drain(context.Background()); err != nil {
		logf("qserve: %v", err)
		exit = 1
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logf("qserve: listener shutdown: %v", err)
	}
	rec.Stop()
	srv.Close()
	if exit != 0 {
		fmt.Fprintln(os.Stderr, "qserve: exited with undelivered items")
	}
	os.Exit(exit)
}
