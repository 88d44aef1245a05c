package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each gated
// end-to-end metric, which way is better, and its regression bound as a
// share of the base median.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of a comparison, after the choosing-metrics rules: a gain needs
// nine pair wins in ten and a median shift wider than the base's own
// spread; a loss is a median worse by more than the bound; and where either
// side's spread exceeds the bound the difference is unresolved, unless
// every head run beats every base run.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// comparison is one metric on one workload across two sets of runs.
type comparison struct {
	base, head     [3]float64 // q1, median, q3
	wins, pairs    int
	verdict        string
	nBase, nHead   int
	spread, change float64 // largest relative IQR; relative median change, + is better
}

// compareRuns judges head against base for a metric where higherBetter
// says which way is better and bound is the allowed relative worsening.
// Runs pair up by position: base[i] against head[i].
func compareRuns(base, head []float64, higherBetter bool, bound float64) comparison {
	var c comparison
	c.nBase, c.nHead = len(base), len(head)
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.head[0], c.head[1], c.head[2] = quartiles(head)
	better := func(h, b float64) bool {
		if higherBetter {
			return h > b
		}
		return h < b
	}
	c.pairs = min(len(base), len(head))
	for i := 0; i < c.pairs; i++ {
		if better(head[i], base[i]) {
			c.wins++
		}
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	medB, medH := c.base[1], c.head[1]
	c.change = (medH - medB) / math.Abs(medB)
	if !higherBetter {
		c.change = -c.change
	}
	c.spread = math.Max((c.base[2]-c.base[0])/math.Abs(medB), (c.head[2]-c.head[0])/math.Abs(medH))
	switch {
	case c.pairs > 0 && c.wins*10 >= 9*c.pairs && better(medH, medB) && math.Abs(medH-medB) > c.base[2]-c.base[0]:
		c.verdict = improved
	case c.spread > bound && !allBetter:
		c.verdict = unresolved
	case -c.change > bound:
		c.verdict = worse
	default:
		c.verdict = unchanged
	}
	return c
}

// runCompare prints, for every gated end-to-end metric of every workload
// present in both files, each side's quartiles, the pairs won and the
// verdict.
func runCompare(w io.Writer, boundsPath, basePath, headPath string) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	head, err := readRuns(headPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s %-16s %-38s %-38s %-6s %s\n", "workload", "metric", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "wins", "verdict")
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			b, h := values(base, wl, m.Name), values(head, wl, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			c := compareRuns(b, h, m.Better == "higher", m.Bound)
			note := fmt.Sprintf("%+.1f%% vs bound %.0f%%, spread %.1f%%", 100*c.change, 100*m.Bound, 100*c.spread)
			fmt.Fprintf(w, "%-11s %-16s %-38s %-38s %-6s %-10s %s\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", c.base[1], c.base[0], c.base[2], c.nBase),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", c.head[1], c.head[0], c.head[2], c.nHead),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict, note)
		}
	}
	return nil
}

// values collects a metric of a workload from the untraced runs of f, in
// run order.
func values(f runsFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Meta.Trace {
			continue
		}
		if wr, ok := r.Workloads[workload]; ok {
			if m, ok := wr.Metrics[name]; ok && !m.NotReportable {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
