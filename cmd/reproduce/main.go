// Command reproduce runs the entire evaluation of the LCRQ paper — Figure 1
// through Figure 9 and Tables 1-3 — at a configurable scale and writes a
// single report. The committed EXPERIMENTS.md was generated by this tool.
//
// Usage:
//
//	reproduce                 # scaled-down defaults, report to stdout
//	reproduce -o report.md    # write to a file
//	reproduce -paper          # full paper-size configuration (hours)
//	reproduce -quick          # smoke-test size (seconds)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"lcrq/internal/affinity"
	"lcrq/internal/atomic128"
	"lcrq/internal/counter"
	"lcrq/internal/harness"
	"lcrq/internal/render"
)

func main() {
	var (
		out        = flag.String("o", "", "write the report to this file (default stdout)")
		paper      = flag.Bool("paper", false, "paper-size configuration (very slow)")
		quick      = flag.Bool("quick", false, "smoke-test size")
		pairs      = flag.Int("pairs", 0, "pairs per thread override")
		runs       = flag.Int("runs", 0, "runs per configuration override")
		maxThreads = flag.Int("maxthreads", 0, "clip every thread axis")
		pin        = flag.Bool("pin", true, "pin threads when supported")
	)
	flag.Parse()

	sc := harness.Scale{Pairs: *pairs, Runs: *runs, MaxThreads: *maxThreads, Pin: *pin}
	incs := 1_000_000
	switch {
	case *paper:
		p := harness.Paper()
		if sc.Pairs == 0 {
			sc.Pairs = p.Pairs
		}
		if sc.Runs == 0 {
			sc.Runs = p.Runs
		}
		incs = 10_000_000
	case *quick:
		if sc.Pairs == 0 {
			sc.Pairs = 2000
		}
		if sc.Runs == 0 {
			sc.Runs = 1
		}
		incs = 100_000
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := report(w, sc, incs); err != nil {
		fatal(err)
	}
}

func report(w io.Writer, sc harness.Scale, incs int) error {
	topo := affinity.Detect()
	fmt.Fprintf(w, "# LCRQ reproduction report\n\n")
	fmt.Fprintf(w, "Generated %s by cmd/reproduce.\n\n", time.Now().Format(time.RFC3339))
	fmt.Fprintf(w, "- host: %d logical CPUs in %d package(s), GOMAXPROCS=%d\n",
		topo.NumCPUs(), topo.NumPackages(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "- CAS2: native CMPXCHG16B = %v\n", atomic128.Available())
	fmt.Fprintf(w, "- thread pinning available: %v\n", affinity.CanPin())
	fmt.Fprintf(w, "- scale: %d pairs/thread, %d runs per point\n\n", sc.Pairs, sc.Runs)
	if topo.NumCPUs() < 4 {
		fmt.Fprintf(w, "> **Warning:** this host has very little hardware parallelism;\n")
		fmt.Fprintf(w, "> contention effects are produced by scheduler interleaving, not\n")
		fmt.Fprintf(w, "> cache coherence, and relative shapes will deviate from the paper.\n\n")
	}

	// Table 1 is a static fact about ISAs; reprinted for completeness.
	fmt.Fprintf(w, "## Table 1: synchronization primitives per architecture\n\n")
	fmt.Fprintf(w, "```\n")
	fmt.Fprintf(w, "          compare-and-swap   swap         test-and-set   fetch-and-add\n")
	fmt.Fprintf(w, "ARM       LL/SC              deprecated   no             no\n")
	fmt.Fprintf(w, "POWER     LL/SC              no           no             no\n")
	fmt.Fprintf(w, "SPARC     yes                deprecated   yes            no\n")
	fmt.Fprintf(w, "x86       yes                yes          yes            yes\n")
	fmt.Fprintf(w, "```\n\n")

	// Figure 1.
	fmt.Fprintf(w, "## Figure 1: contended counter, F&A vs CAS loop\n\n```\n")
	counter.Figure(w, sc.MaxThreads, incs, sc.Pin)
	fmt.Fprintf(w, "```\n\n")

	// Throughput figures.
	for _, id := range []string{"6a", "6b", "7a", "7b"} {
		spec := harness.Figures()[id]
		fmt.Fprintf(w, "## Figure %s\n\n```\n", id)
		res, err := harness.RunFigure(spec, sc)
		if err != nil {
			return err
		}
		render.Figure(w, res)
		fmt.Fprintf(w, "```\n\n")
	}

	// Latency figures.
	for _, id := range []string{"8a", "8b"} {
		spec := harness.LatencyFigures()[id]
		fmt.Fprintf(w, "## Figure %s\n\n```\n", id)
		res, err := harness.RunLatencyFigure(spec, sc)
		if err != nil {
			return err
		}
		render.Latency(w, res)
		fmt.Fprintf(w, "```\n\n")
	}

	// Ring sweeps.
	for _, id := range []string{"9a", "9b", "9c"} {
		spec := harness.RingSweeps()[id]
		fmt.Fprintf(w, "## Figure %s\n\n```\n", id)
		res, err := harness.RunRingSweep(spec, sc)
		if err != nil {
			return err
		}
		render.RingSweep(w, res)
		fmt.Fprintf(w, "```\n\n")
	}

	// Statistics tables.
	for _, id := range []string{"2", "3"} {
		spec := harness.Tables()[id]
		fmt.Fprintf(w, "## Table %s\n\n```\n", id)
		res, err := harness.RunTable(spec, sc)
		if err != nil {
			return err
		}
		render.Table(w, res)
		fmt.Fprintf(w, "```\n\n")
	}
	fmt.Fprintf(w, "---\nReport complete. See EXPERIMENTS.md for paper-vs-measured discussion.\n")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
