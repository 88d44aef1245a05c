// Command qbench regenerates the throughput figures, latency figures, ring
// sweeps, and statistics tables of the LCRQ paper's evaluation.
//
// Usage:
//
//	qbench -fig 6a                  # Figure 6a at the scaled default size
//	qbench -fig 7b -paper           # full paper-size run (slow)
//	qbench -table 2                 # Table 2 statistics
//	qbench -fig 9b                  # ring-size sensitivity
//	qbench -fig 8a                  # latency CDF
//	qbench -list                    # what can be regenerated
//	qbench -queues lcrq,ms-queue -threads 1,2,4 -pairs 50000   # custom sweep
//	qbench -batch 64 -metrics BENCH_batch.json  # batched-operation study
//
// Flags -pairs, -runs, -maxthreads, and -ring scale any experiment; -csv
// switches figure output to CSV; -chart adds an ASCII chart; -metrics PATH
// additionally writes the results as a JSON sidecar for dashboards.
//
// Governed runs (extension): -capacity N bounds the LCRQ family to N
// in-flight items (producers block under backpressure), and -watchdog DUR
// samples the budget stats at that interval, deriving a health verdict.
// Both the budget outcome and the verdict land in the -metrics sidecar:
//
//	qbench -queues lcrq -threads 8 -capacity 1024 -watchdog 10ms -metrics gov.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"lcrq/internal/harness"
	"lcrq/internal/queues"
	"lcrq/internal/render"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 6a, 6b, 7a, 7b, 8a, 8b, 9a, 9b, 9c")
		table      = flag.String("table", "", "table to regenerate: 2 or 3")
		paper      = flag.Bool("paper", false, "paper-size configuration (10^7 pairs, 10 runs; slow)")
		pairs      = flag.Int("pairs", 0, "enqueue/dequeue pairs per thread (0 = scaled default)")
		runs       = flag.Int("runs", 0, "runs per configuration (0 = scaled default)")
		maxThreads = flag.Int("maxthreads", 0, "clip thread axis (0 = spec values)")
		ring       = flag.String("ring", "", "a number overrides the LCRQ ring order; engine names (scq,lcrq) run the ring-engine comparison sweep")
		pin        = flag.Bool("pin", true, "pin threads to CPUs when supported")
		csv        = flag.Bool("csv", false, "emit figure data as CSV")
		jsonOut    = flag.Bool("json", false, "emit results as JSON")
		chart      = flag.Bool("chart", false, "draw an ASCII chart under the table")
		list       = flag.Bool("list", false, "list available figures and tables")
		queuesFlag = flag.String("queues", "", "custom sweep: comma-separated queue names")
		threadsF   = flag.String("threads", "1,2,4,8", "custom sweep: comma-separated thread counts")
		prefill    = flag.Int("prefill", 0, "custom sweep: items pre-inserted")
		metricsOut = flag.String("metrics", "", "also write results as a JSON sidecar to this path")
		capacity   = flag.Int64("capacity", 0, "governed run: bound the LCRQ family to this many in-flight items (0 = unbounded)")
		watchdog   = flag.Duration("watchdog", 0, "governed run: sample budget health at this interval and report verdicts (0 = off)")
		batch      = flag.Int("batch", 0, "batch study: sweep EnqueueBatch/DequeueBatch block sizes up to N (0 = off)")
	)
	flag.Parse()

	// -ring is overloaded: a bare number keeps its original meaning (ring
	// order override), anything else names ring engines for the comparison
	// sweep (e.g. -ring scq,lcrq).
	ringOrder := 0
	ringEngines := ""
	if *ring != "" {
		if n, err := strconv.Atoi(*ring); err == nil {
			ringOrder = n
		} else {
			ringEngines = *ring
		}
	}

	sc := harness.Scale{Pairs: *pairs, Runs: *runs, MaxThreads: *maxThreads,
		RingOrder: ringOrder, Pin: *pin, Capacity: *capacity, Watchdog: *watchdog}
	if *paper {
		p := harness.Paper()
		if *pairs == 0 {
			sc.Pairs = p.Pairs
		}
		if *runs == 0 {
			sc.Runs = p.Runs
		}
	}

	mode := outputMode{csv: *csv, json: *jsonOut, chart: *chart, metrics: *metricsOut}
	switch {
	case *list:
		printList()
	case *fig != "":
		if err := runFigure(*fig, sc, mode); err != nil {
			fatal(err)
		}
	case *table != "":
		spec, ok := harness.Tables()[*table]
		if !ok {
			fatal(fmt.Errorf("unknown table %q (have 2, 3)", *table))
		}
		res, err := harness.RunTable(spec, sc)
		if err != nil {
			fatal(err)
		}
		if err := mode.sidecar(func(w io.Writer) error { return render.JSONTable(w, res) }); err != nil {
			fatal(err)
		}
		if *jsonOut {
			if err := render.JSONTable(os.Stdout, res); err != nil {
				fatal(err)
			}
		} else {
			render.Table(os.Stdout, res)
		}
	case *batch > 0:
		if err := runBatch(*batch, *queuesFlag, *threadsF, sc, mode); err != nil {
			fatal(err)
		}
	case ringEngines != "":
		if err := runRingEngines(ringEngines, *threadsF, sc, mode); err != nil {
			fatal(err)
		}
	case *queuesFlag != "":
		if err := runCustom(*queuesFlag, *threadsF, *prefill, sc, mode); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// outputMode selects how results are rendered. metrics, when nonempty, is a
// path that additionally receives the results as JSON — a machine-readable
// sidecar independent of the human-oriented stdout rendering, so dashboards
// can ingest every run without giving up the terminal tables.
type outputMode struct {
	csv     bool
	json    bool
	chart   bool
	metrics string
}

// sidecar writes the JSON form of the results to the -metrics path, if set.
func (m outputMode) sidecar(write func(io.Writer) error) error {
	if m.metrics == "" {
		return nil
	}
	f, err := os.Create(m.metrics)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (m outputMode) figure(res *harness.FigureResult) error {
	if err := m.sidecar(func(w io.Writer) error { return render.JSONFigure(w, res) }); err != nil {
		return err
	}
	switch {
	case m.json:
		return render.JSONFigure(os.Stdout, res)
	case m.csv:
		render.FigureCSV(os.Stdout, res)
	default:
		render.Figure(os.Stdout, res)
		if m.chart {
			fmt.Println()
			render.Chart(os.Stdout, res, 12)
		}
	}
	return nil
}

func runFigure(id string, sc harness.Scale, mode outputMode) error {
	if spec, ok := harness.Figures()[id]; ok {
		res, err := harness.RunFigure(spec, sc)
		if err != nil {
			return err
		}
		return mode.figure(res)
	}
	if spec, ok := harness.LatencyFigures()[id]; ok {
		res, err := harness.RunLatencyFigure(spec, sc)
		if err != nil {
			return err
		}
		if err := mode.sidecar(func(w io.Writer) error { return render.JSONLatency(w, res) }); err != nil {
			return err
		}
		if mode.json {
			return render.JSONLatency(os.Stdout, res)
		}
		render.Latency(os.Stdout, res)
		return nil
	}
	if spec, ok := harness.RingSweeps()[id]; ok {
		res, err := harness.RunRingSweep(spec, sc)
		if err != nil {
			return err
		}
		if err := mode.sidecar(func(w io.Writer) error { return render.JSONRingSweep(w, res) }); err != nil {
			return err
		}
		if mode.json {
			return render.JSONRingSweep(os.Stdout, res)
		}
		render.RingSweep(os.Stdout, res)
		return nil
	}
	return fmt.Errorf("unknown figure %q; try -list", id)
}

// runBatch sweeps EnqueueBatch/DequeueBatch block sizes 1, 4, 16, 64
// clipped to maxK (maxK itself is added when it falls between the standard
// points), comparing item throughput and F&A amortization against the k=1
// baseline.
func runBatch(maxK int, queuesCSV, threadsCSV string, sc harness.Scale, mode outputMode) error {
	spec := harness.BatchSweep()
	if queuesCSV != "" {
		spec.Queue = strings.Split(queuesCSV, ",")[0]
	}
	if threadsCSV != "" {
		for _, t := range strings.Split(threadsCSV, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(t))
			if err != nil || v < 1 {
				return fmt.Errorf("bad thread count %q", t)
			}
			if v > spec.Threads {
				spec.Threads = v
			}
		}
	}
	var sizes []int
	for _, k := range spec.Sizes {
		if k <= maxK {
			sizes = append(sizes, k)
		}
	}
	if len(sizes) == 0 || sizes[len(sizes)-1] != maxK {
		sizes = append(sizes, maxK)
	}
	spec.Sizes = sizes
	res, err := harness.RunBatchSweep(spec, sc)
	if err != nil {
		return err
	}
	if err := mode.sidecar(func(w io.Writer) error { return render.JSONBatchSweep(w, res) }); err != nil {
		return err
	}
	if mode.json {
		return render.JSONBatchSweep(os.Stdout, res)
	}
	render.BatchSweep(os.Stdout, res)
	return nil
}

func runCustom(queuesCSV, threadsCSV string, prefill int, sc harness.Scale, mode outputMode) error {
	names := strings.Split(queuesCSV, ",")
	for _, n := range names {
		found := false
		for _, have := range queues.Names() {
			if n == have {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown queue %q (have %v)", n, queues.Names())
		}
	}
	var threads []int
	for _, t := range strings.Split(threadsCSV, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || v < 1 {
			return fmt.Errorf("bad thread count %q", t)
		}
		threads = append(threads, v)
	}
	spec := harness.FigureSpec{
		ID:        "custom",
		Title:     "custom sweep",
		Queues:    names,
		Threads:   threads,
		Placement: harness.SingleCluster,
		Prefill:   prefill,
		MaxDelay:  100,
	}
	res, err := harness.RunFigure(spec, sc)
	if err != nil {
		return err
	}
	return mode.figure(res)
}

// runRingEngines compares ring engines under the paper's single-op
// pairwise workload: each engine name maps to the registered queue that
// forces it ("lcrq" = the per-GOARCH default, CAS2 on native amd64; "scq" =
// the portable single-word engine). Besides the usual figure rendering it
// prints the SCQ/LCRQ throughput ratio per thread count — the acceptance
// gate for the portable ring is staying within 2x of CAS2 on amd64.
func runRingEngines(enginesCSV, threadsCSV string, sc harness.Scale, mode outputMode) error {
	var names []string
	for _, e := range strings.Split(enginesCSV, ",") {
		switch e = strings.TrimSpace(e); e {
		case "scq", "lcrq":
			names = append(names, e)
		default:
			return fmt.Errorf("unknown ring engine %q (have scq, lcrq)", e)
		}
	}
	var threads []int
	for _, t := range strings.Split(threadsCSV, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || v < 1 {
			return fmt.Errorf("bad thread count %q", t)
		}
		threads = append(threads, v)
	}
	spec := harness.FigureSpec{
		ID:        "ring-engines",
		Title:     "ring engine comparison (enqueue/dequeue pairs)",
		Queues:    names,
		Threads:   threads,
		Placement: harness.SingleCluster,
		MaxDelay:  100,
	}
	res, err := harness.RunFigure(spec, sc)
	if err != nil {
		return err
	}
	if err := mode.figure(res); err != nil {
		return err
	}
	byQueue := map[string][]harness.Point{}
	for _, s := range res.Series {
		byQueue[s.Queue] = s.Points
	}
	scq, lcrq := byQueue["scq"], byQueue["lcrq"]
	if !mode.json && len(scq) == len(lcrq) && len(lcrq) > 0 {
		fmt.Printf("\nSCQ/LCRQ throughput ratio (%s):\n", runtime.GOARCH)
		for i := range lcrq {
			if lcrq[i].Mops > 0 {
				fmt.Printf("  %2d threads: %.2fx\n", lcrq[i].X, scq[i].Mops/lcrq[i].Mops)
			}
		}
	}
	return nil
}

func printList() {
	fmt.Println("Figures (qbench -fig <id>):")
	var ids []string
	for id := range harness.Figures() {
		ids = append(ids, id)
	}
	for id := range harness.LatencyFigures() {
		ids = append(ids, id)
	}
	for id := range harness.RingSweeps() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		title := ""
		if s, ok := harness.Figures()[id]; ok {
			title = s.Title
		} else if s, ok := harness.LatencyFigures()[id]; ok {
			title = s.Title + " (latency CDF)"
		} else if s, ok := harness.RingSweeps()[id]; ok {
			title = s.Title
		}
		fmt.Printf("  %-4s %s\n", id, title)
	}
	fmt.Println("Tables (qbench -table <id>):")
	var tids []string
	for id := range harness.Tables() {
		tids = append(tids, id)
	}
	sort.Strings(tids)
	for _, id := range tids {
		fmt.Printf("  %-4s %s\n", id, harness.Tables()[id].Title)
	}
	fmt.Printf("Queues: %s\n", strings.Join(queues.Names(), ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qbench:", err)
	os.Exit(1)
}
