// Command qbench regenerates the counter figure, throughput figures, latency
// figures, ring sweeps, and statistics tables of the LCRQ paper's
// evaluation.
//
// Usage:
//
//	qbench -fig 1                   # Figure 1: contended counter, F&A vs CAS
//	qbench -fig 6a                  # Figure 6a at the scaled default size
//	qbench -fig 7b -paper           # full paper-size run (slow)
//	qbench -table 2                 # Table 2 statistics
//	qbench -fig 9b                  # ring-size sensitivity
//	qbench -fig 8a                  # latency CDF
//	qbench -list                    # what can be regenerated
//	qbench -queues lcrq,ms-queue -threads 1,2,4 -pairs 50000   # custom sweep
//	qbench -batch 64                # batched-operation study
//
// Flags -pairs, -runs, -maxthreads, and -ring scale any experiment; -csv
// switches figure output to CSV; -chart adds an ASCII chart; -json emits
// the results as JSON instead of tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"lcrq/internal/counter"
	"lcrq/internal/harness"
	"lcrq/internal/queues"
	"lcrq/internal/render"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 1, 6a, 6b, 7a, 7b, 8a, 8b, 9a, 9b, 9c")
		table      = flag.String("table", "", "table to regenerate: 2 or 3")
		paper      = flag.Bool("paper", false, "paper-size configuration (10^7 pairs, 10 runs; slow)")
		pairs      = flag.Int("pairs", 0, "enqueue/dequeue pairs per thread (0 = scaled default)")
		runs       = flag.Int("runs", 0, "runs per configuration (0 = scaled default)")
		maxThreads = flag.Int("maxthreads", 0, "clip thread axis (0 = spec values)")
		ring       = flag.Int("ring", 0, "override the LCRQ ring order (0 = spec default)")
		pin        = flag.Bool("pin", true, "pin threads to CPUs when supported")
		csv        = flag.Bool("csv", false, "emit figure data as CSV")
		jsonOut    = flag.Bool("json", false, "emit results as JSON")
		chart      = flag.Bool("chart", false, "draw an ASCII chart under the table")
		list       = flag.Bool("list", false, "list available figures and tables")
		queuesFlag = flag.String("queues", "", "custom sweep: comma-separated queue names")
		threadsF   = flag.String("threads", "1,2,4,8", "custom sweep: comma-separated thread counts")
		prefill    = flag.Int("prefill", 0, "custom sweep: items pre-inserted")
		batch      = flag.Int("batch", 0, "batch study: sweep EnqueueBatch/DequeueBatch block sizes up to N (0 = off)")
	)
	flag.Parse()

	threads, err := parseThreads(*threadsF)
	if err != nil {
		fatal(err)
	}
	sc := harness.Scale{Pairs: *pairs, Runs: *runs, MaxThreads: *maxThreads,
		RingOrder: *ring, Pin: *pin}
	if *paper {
		p := harness.Paper()
		if *pairs == 0 {
			sc.Pairs = p.Pairs
		}
		if *runs == 0 {
			sc.Runs = p.Runs
		}
	}

	mode := outputMode{csv: *csv, json: *jsonOut, chart: *chart}
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
		if *jsonOut {
			if err := render.JSONTable(os.Stdout, res); err != nil {
				fatal(err)
			}
		} else {
			render.Table(os.Stdout, res)
		}
	case *batch > 0:
		var batchThreads []int // nil: the spec's own thread count
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "threads" {
				batchThreads = threads
			}
		})
		if err := runBatch(*batch, *queuesFlag, batchThreads, sc, mode); err != nil {
			fatal(err)
		}
	case *queuesFlag != "":
		if err := runCustom(*queuesFlag, threads, *prefill, sc, mode); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// parseThreads parses the -threads list of positive thread counts.
func parseThreads(csv string) ([]int, error) {
	var threads []int
	for _, t := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", t)
		}
		threads = append(threads, v)
	}
	return threads, nil
}

// outputMode selects how results are rendered.
type outputMode struct {
	csv   bool
	json  bool
	chart bool
}

func (m outputMode) figure(res *harness.FigureResult) error {
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

// figure1Title is Figure 1's title; the harness does not run it, so -list
// names it here.
const figure1Title = "Contended counter: F&A vs CAS loop"

func runFigure(id string, sc harness.Scale, mode outputMode) error {
	if id == "1" {
		if mode.json || mode.csv {
			return errors.New("figure 1 prints a table only")
		}
		incs := sc.Pairs
		if incs == 0 {
			incs = 1_000_000
		}
		fmt.Printf("Figure 1: %s, %d increments per thread\n\n", figure1Title, incs)
		counter.Figure(os.Stdout, sc.MaxThreads, incs, sc.Pin)
		return nil
	}
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
		if mode.json {
			return render.JSONRingSweep(os.Stdout, res)
		}
		render.RingSweep(os.Stdout, res)
		return nil
	}
	return fmt.Errorf("unknown figure %q; try -list", id)
}

// runBatch sweeps EnqueueBatch/DequeueBatch block sizes, comparing item
// throughput and F&A amortization against the k=1 baseline.
func runBatch(maxK int, queuesCSV string, threads []int, sc harness.Scale, mode outputMode) error {
	res, err := harness.RunBatchSweep(batchSpec(maxK, queuesCSV, threads), sc)
	if err != nil {
		return err
	}
	if mode.json {
		return render.JSONBatchSweep(os.Stdout, res)
	}
	render.BatchSweep(os.Stdout, res)
	return nil
}

// batchSpec is the batch study's sweep: block sizes 1, 4, 16, 64 clipped to
// maxK (maxK itself is added when it falls between the standard points),
// the first -queues entry if any, and the spec's thread count unless
// -threads was given (threads non-nil), in which case its largest value.
func batchSpec(maxK int, queuesCSV string, threads []int) harness.BatchSweepSpec {
	spec := harness.BatchSweep()
	if queuesCSV != "" {
		spec.Queue = strings.Split(queuesCSV, ",")[0]
	}
	if len(threads) > 0 {
		spec.Threads = slices.Max(threads)
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
	return spec
}

func runCustom(queuesCSV string, threads []int, prefill int, sc harness.Scale, mode outputMode) error {
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
	fmt.Printf("  %-4s %s (-pairs sets increments per thread)\n", "1", figure1Title)
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
