// Command lcrqbench is the repository's benchmark: one command that runs
// the queue's four workloads, checks that every item comes out exactly
// once and in order, and prints each end-to-end metric by name with its
// unit and sample count. With -trace 1 it instead runs the traced pass and
// the per-layer cost ledger. See bench/README.md.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh -seed 1
//
// or, from bench/, with go run ./lcrqbench -seed 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"lcrq/internal/buildmeta"
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{"pairs", "burst", "typed-full", "service"}

const (
	warmup = 2 * time.Second
	window = 500 * time.Millisecond
	// setups is how many times an untraced run builds its system under
	// test; setup_s is their median. One set-up takes tens of microseconds
	// to a millisecond, so one alone is mostly noise.
	setups = 25
	// latCap is the latency samples kept per load generator.
	latCap = 1 << 20
	// spanCap is the spans kept per recorder in a traced run.
	spanCap = 1 << 14
	// ledgerShare is the part of a traced run's seconds given to the ledger;
	// the rest measures the workload's traced and untraced windows.
	ledgerShare = 0.6
	// ledgerRounds is how many times the ledger runs each row.
	ledgerRounds = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcrqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (delays)")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced pass and the per-layer ledger instead of the end-to-end measurement")
	out := fs.String("out", "", "append this run's results and provenance to this JSON file")
	spans := fs.String("spans", "", "traced run: write the kept spans to this file as JSON lines (default .bench_build/lcrqbench-spans-<workload>.jsonl)")
	compare := fs.String("compare", "", "compare the runs in this file (base) with those in the file given as the argument (head), and exit")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -compare: the file declaring each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "lcrqbench: -compare base.json needs one argument, the head file")
			return 2
		}
		if err := runCompare(stdout, *bounds, *compare, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "lcrqbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "lcrqbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "lcrqbench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "lcrqbench: -trace takes 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "lcrqbench: -seconds must be positive")
		return 2
	}

	meta := collectMeta(*seed, *seconds, *trace == 1)
	if meta.Dirty {
		fmt.Fprintln(stderr, "lcrqbench: warning: the tree has uncommitted changes; these numbers do not belong to commit", meta.Commit)
	}
	// server.New stamps its /statsz provenance with buildmeta.Collect, which
	// forks git when the binary carries no VCS stamp. Setting the commit in
	// the environment gives every set-up the cost a stamped qserve binary
	// pays, wherever the benchmark was built.
	os.Setenv("LCRQ_COMMIT", meta.Commit)
	fmt.Fprintln(stdout, meta.line())

	rec := runRecord{Meta: meta, Workloads: map[string]*workloadResult{}}
	rc := runConfig{
		seed: *seed, warmup: warmup, measure: time.Duration(*seconds * float64(time.Second)),
		window: window, setups: setups, latCap: latCap, spanCap: spanCap,
	}
	for _, name := range names {
		var res *workloadResult
		if *trace == 1 {
			path := *spans
			if path == "" {
				path = defaultSpansPath(name)
			}
			res = tracedRun(name, rc, path, stderr)
			printMetrics(stdout, name, perLayer, res.Metrics)
		} else {
			res = untracedRun(name, rc)
			printMetrics(stdout, name, slices.Concat(endToEnd, reportOnly), res.Metrics)
		}
		if res.Error != "" {
			fmt.Fprintf(stderr, "lcrqbench: %s: INCORRECT: %s\n", name, res.Error)
		}
		rec.Workloads[name] = res
	}
	rec.Meta.Pinned = rec.pinned()

	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(stderr, "lcrqbench:", err)
			return 1
		}
	}
	gated := endToEnd
	if *trace == 1 {
		gated = perLayer
	}
	summary := rec.summary(gated)
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "lcrqbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !summary.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload under rc.
func runWorkload(name string, rc runConfig) *outcome {
	switch name {
	case "pairs":
		return runLib(libSpec{pairsShape, "lcrq.handle", func() libQueue { return newHandleQueue() }}, rc)
	case "burst":
		return runLib(libSpec{burstShape, "lcrq.handle", func() libQueue { return newHandleQueue() }}, rc)
	case "typed-full":
		return runLib(libSpec{pairsShape, "lcrq.typed", func() libQueue { return newTypedQueue(typedFullOptions()...) }}, rc)
	case "service":
		return runService(rc)
	}
	panic("lcrqbench: unknown workload " + name)
}

// untracedRun measures a workload's end-to-end metrics.
func untracedRun(name string, rc runConfig) *workloadResult {
	o := runWorkload(name, rc)
	return newResult(o, endToEndMetrics(o))
}

// tracedRun spends part of rc.measure on the workload with alternating
// traced windows and the rest on the ledger, and writes the kept spans to
// spansPath.
func tracedRun(name string, rc runConfig, spansPath string, stderr io.Writer) *workloadResult {
	start := clock()
	ledgerBudget := time.Duration(float64(rc.measure) * ledgerShare)
	rc.measure -= ledgerBudget
	rc.setups, rc.trace = 1, traceAlternate
	o := runWorkload(name, rc)
	rows := runLedger(rc.seed, ledgerBudget, ledgerRounds)
	res := newResult(o, perLayerMetrics(rows, traceOverhead(o)))
	errs := []error{o.err}
	for _, row := range slices.Sorted(maps.Keys(rows)) {
		r := rows[row]
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.err != nil {
			errs = append(errs, fmt.Errorf("ledger row %s: %w", row, r.err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		res.Correct, res.Error = false, err.Error()
	}
	res.Durations["total"] = float64(clock()-start) / 1e9
	if err := writeSpans(spansPath, o.logs...); err != nil {
		fmt.Fprintln(stderr, "lcrqbench: writing spans:", err)
	}
	return res
}

// runRecord is one invocation's results and provenance, the unit -out
// appends and -compare reads.
type runRecord struct {
	Meta      provenance                 `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's results within a run.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Error     string             `json:"error,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Pinned    bool               `json:"pinned"`
	Durations map[string]float64 `json:"durations_s"`
	Metrics   map[string]metric  `json:"metrics"`
	// WindowRates are the item ops per second of each measured window, in
	// order, so drift within a run can be seen.
	WindowRates []float64 `json:"window_rates"`
}

func newResult(o *outcome, ms map[string]metric) *workloadResult {
	for name, m := range ms {
		// JSON has no NaN or infinity; a value that could not be computed
		// (no samples) is recorded as 0 and marked.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value, m.NotReportable = 0, true
			ms[name] = m
		}
	}
	r := &workloadResult{
		Correct: o.err == nil, Attempted: o.attempted, Failed: o.failed,
		Pinned: o.pinned, Durations: o.durations, Metrics: ms,
		WindowRates: windowRates(itemMarks(o.meters), float64(o.sched.window)/1e9),
	}
	if o.err != nil {
		r.Error = o.err.Error()
	}
	return r
}

// pinned reports whether every library workload ran on pinned threads.
func (r *runRecord) pinned() bool {
	for name, w := range r.Workloads {
		if name != "service" && !w.Pinned {
			return false
		}
	}
	return true
}

// summaryLine is the last line the command prints: the run's correctness,
// its attempted and failed operations, and its metrics. With one workload
// the metrics keep their names; with several each is prefixed by its
// workload.
type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runRecord) summary(defs []metricDef) summaryLine {
	s := summaryLine{Correct: true, Metrics: map[string]summaryMetric{}}
	for name, w := range r.Workloads {
		s.Correct = s.Correct && w.Correct
		s.Attempted += w.Attempted
		s.Failed += w.Failed
		for _, d := range defs {
			key := d.name
			if len(r.Workloads) > 1 {
				key = name + "/" + d.name
			}
			s.Metrics[key] = summaryMetric{Value: w.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	return s
}

// printMetrics prints one line per metric: workload, name, value, unit and
// sample count.
func printMetrics(w io.Writer, workload string, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		m := ms[d.name]
		note := ""
		if m.NotReportable {
			note = fmt.Sprintf("  not reportable: fewer than %d samples beyond it", minBeyond)
		}
		fmt.Fprintf(w, "%-11s %-34s %14.6g %-9s n=%d%s\n", workload, d.name, m.Value, d.unit, m.Samples, note)
	}
}

// provenance records what produced a run.
type provenance struct {
	buildmeta.Meta
	NProc          int     `json:"nproc"`
	Pinned         bool    `json:"pinned"`
	CPUModel       string  `json:"cpu_model"`
	Seed           uint64  `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
	DelayNsPerIter float64 `json:"delay_ns_per_iter"`
}

func collectMeta(seed uint64, seconds float64, trace bool) provenance {
	return provenance{
		Meta:           buildmeta.Collect(),
		NProc:          runtime.NumCPU(),
		CPUModel:       cpuModel(),
		Seed:           seed,
		Seconds:        seconds,
		Trace:          trace,
		DelayNsPerIter: delayNsPerIter(),
	}
}

func (p provenance) line() string {
	return fmt.Sprintf("# lcrqbench commit=%s dirty=%t nproc=%d gomaxprocs=%d cpu=%q go=%s seed=%d seconds=%g trace=%t delay_ns_per_iter=%.3f",
		p.Commit, p.Dirty, p.NProc, p.GoMaxProcs, p.CPUModel, p.GoVersion, p.Seed, p.Seconds, p.Trace, p.DelayNsPerIter)
}

// cpuModel returns the processor's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runsFile is the format of a -out file: every run appended to it.
type runsFile struct {
	Runs []runRecord `json:"runs"`
}

func readRuns(path string) (runsFile, error) {
	var f runsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// appendRun adds rec to the runs in path, creating the file if needed.
func appendRun(path string, rec runRecord) error {
	f, err := readRuns(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
