// Command qload is the end-to-end correctness checker for qserve: it drives
// real HTTP traffic through internal/resilience/client, injects the faults a
// queue service actually meets, and exits non-zero when any check fails.
//
//	qload -qserve ./bin/qserve                      # trace probe + faults
//	qload -qserve ./bin/qserve -duration 300ms      # CI smoke
//
// A trace probe runs first: traced requests must have their whole RTT
// accounted for by the client, shed, residency and delivery spans, and the
// server must export the sojourn distribution. Then three fault scenarios
// run, each against its own freshly spawned qserve process:
//
//   - killed connections: enqueues flow through a TCP proxy that murders
//     connections mid-exchange; ambiguous batches are settled afterwards by
//     resending their idempotency keys, and the accounting must come out
//     exactly-once;
//   - slow consumer: a bounded queue with no consumers must trip the
//     watchdog's capacity-stall, shed with 429 + X-Load-Shed before the hot
//     path, and recover (watchdog-recover in /statsz) once consumers return;
//   - mid-sweep SIGTERM: the process is signaled with RPCs in flight; every
//     value confirmed accepted must be delivered exactly once, a probe
//     after the first drain rejection must not be accepted, and the process
//     must exit 0.
//
// Every check is printed to stdout; the exit code is the gate. qload
// measures no performance: throughput and latency are lcrqbench's job
// (bench/), whose `service` workload drives the same handler.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		qservePath  = flag.String("qserve", "./bin/qserve", "path to the qserve binary to drive")
		duration    = flag.Duration("duration", 2*time.Second, "load duration of the killed-connections scenario")
		skipFaults  = flag.Bool("skip-faults", false, "run only the trace probe")
		traceProbes = flag.Int("trace-probes", 16, "traced requests for the span-decomposition check")
	)
	flag.Parse()

	if _, err := os.Stat(*qservePath); err != nil {
		fatalf("qserve binary: %v (build it first: go build -o bin/qserve ./cmd/qserve)", err)
	}
	pass := true
	fmt.Printf("qload: driving %s (GOMAXPROCS %d)\n", *qservePath, runtime.GOMAXPROCS(0))

	fmt.Println("trace: cross-layer span decomposition")
	tr, err := runTraceProbe(*qservePath, *traceProbes)
	if err != nil {
		fatalf("trace probe: %v", err)
	}
	fmt.Printf("  %d probes, max span gap %.2f%%; sojourn p50 %.3fms p99 %.3fms; exemplar rtt %.2fms = backoff %.2f + shed %.2f + residency %.2f + delivery %.2f\n",
		tr.Probes, tr.MaxGapPct, tr.SojournP50Ms, tr.SojournP99Ms,
		tr.Exemplar.RTTMs, tr.Exemplar.ClientBackoffMs, tr.Exemplar.ShedWaitMs,
		tr.Exemplar.QueueResidencyMs, tr.Exemplar.DeliveryMs)
	if tr.MaxGapPct > 5.0 || !tr.PrometheusSojourn || tr.SojournP99Ms <= 0 {
		fmt.Println("  FAIL: span decomposition did not account for the RTT, or sojourn missing from an export")
		pass = false
	}

	if !*skipFaults {
		fmt.Println("fault: killed connections")
		kr, err := runKilledConnections(*qservePath, *duration)
		if err != nil {
			fatalf("killed connections: %v", err)
		}
		fmt.Printf("  %d kills over %d batches, %d ambiguous settled by key; accepted %d = delivered %d, duplicates %d\n",
			kr.Kills, kr.Batches, kr.Resolved, kr.Accepted, kr.Delivered, kr.Duplicates)
		if kr.Lost != 0 || kr.Duplicates != 0 {
			fmt.Println("  FAIL: accepted items lost or duplicated")
			pass = false
		}

		fmt.Println("fault: slow consumer (shed + recover)")
		sr, err := runSlowConsumer(*qservePath)
		if err != nil {
			fatalf("slow consumer: %v", err)
		}
		fmt.Printf("  shed 429 after %.0fms (X-Load-Shed %v), recovered %.0fms after consumers returned (%d watchdog recovers)\n",
			sr.ShedAfterMs, sr.ShedHeader, sr.RecoverMs, sr.WatchdogRecovers)
		if !sr.ShedHeader || sr.WatchdogRecovers == 0 {
			fmt.Println("  FAIL: shed or recovery not observed")
			pass = false
		}

		fmt.Println("fault: SIGTERM mid-traffic (graceful drain)")
		dr, err := runSigtermDrain(*qservePath)
		if err != nil {
			fatalf("sigterm drain: %v", err)
		}
		fmt.Printf("  accepted %d, delivered %d (unknown-outcome batches: %d), post-drain accepts %d, exit %d after %.0fms\n",
			dr.Accepted, dr.Delivered, dr.Unknown, dr.PostDrainAccepts, dr.ExitCode, dr.DrainMs)
		if dr.Lost != 0 || dr.Duplicates != 0 || dr.Phantoms != 0 || dr.PostDrainAccepts != 0 || dr.ExitCode != 0 {
			fmt.Println("  FAIL: drain contract violated")
			pass = false
		}
	}

	if !pass {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qload: "+format+"\n", args...)
	os.Exit(1)
}
