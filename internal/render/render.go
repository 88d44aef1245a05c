// Package render formats harness results as aligned text tables, CSV, and
// ASCII charts for the cmd/ drivers. Rendering is separated from measuring
// so the same data can be printed, saved, and compared in EXPERIMENTS.md.
package render

import (
	"fmt"
	"io"
	"strings"

	"lcrq/internal/harness"
)

// Figure writes a throughput figure as a text table: one row per thread
// count, one column per queue.
func Figure(w io.Writer, r *harness.FigureResult) {
	fmt.Fprintf(w, "Figure %s: %s\n", r.Spec.ID, r.Spec.Title)
	env := fmt.Sprintf("host: %d CPUs, %d packages", r.HostCPUs, r.HostPkgs)
	if r.Simulated {
		env += " (clusters SIMULATED — hardware has fewer packages)"
	}
	if r.Pinned {
		env += ", threads pinned"
	}
	fmt.Fprintf(w, "%s\n", env)
	fmt.Fprintf(w, "throughput in Mops/s (mean of %d runs, %d pairs/thread)\n\n",
		r.Scale.Runs, r.Scale.Pairs)

	header := []string{"threads"}
	header = append(header, r.Spec.Queues...)
	rows := [][]string{}
	if len(r.Series) == 0 {
		return
	}
	for i, p := range r.Series[0].Points {
		row := []string{fmt.Sprintf("%d", p.X)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.3f", s.Points[i].Mops))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)
}

// FigureCSV writes the same data as CSV.
func FigureCSV(w io.Writer, r *harness.FigureResult) {
	fmt.Fprintf(w, "threads")
	for _, s := range r.Series {
		fmt.Fprintf(w, ",%s", s.Queue)
	}
	fmt.Fprintln(w)
	if len(r.Series) == 0 {
		return
	}
	for i, p := range r.Series[0].Points {
		fmt.Fprintf(w, "%d", p.X)
		for _, s := range r.Series {
			fmt.Fprintf(w, ",%.4f", s.Points[i].Mops)
		}
		fmt.Fprintln(w)
	}
}

// Latency writes a latency figure as a CDF table over round-number
// thresholds, mirroring the axes of Figure 8.
func Latency(w io.Writer, r *harness.LatencyResult) {
	fmt.Fprintf(w, "Figure %s: %s\n", r.Spec.ID, r.Spec.Title)
	fmt.Fprintf(w, "cumulative %% of operations completing within each latency\n\n")
	thresholds := []int64{100, 200, 240, 500, 1000, 2000, 5000, 10000, 25000,
		100000, 1000000, 10000000}
	header := []string{"latency ≤"}
	for _, s := range r.Series {
		header = append(header, s.Queue)
	}
	rows := [][]string{}
	for _, th := range thresholds {
		row := []string{fmtNs(th)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%5.1f%%", 100*s.Hist.FractionBelow(th)))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)
	fmt.Fprintln(w)
	header = []string{"queue", "mean", "p50", "p80", "p97", "p99.9", "max"}
	rows = rows[:0]
	for _, s := range r.Series {
		rows = append(rows, []string{
			s.Queue,
			fmtNs(int64(s.MeanNs)),
			fmtNs(s.Hist.Quantile(0.5)),
			fmtNs(s.Hist.Quantile(0.8)),
			fmtNs(s.Hist.Quantile(0.97)),
			fmtNs(s.Hist.Quantile(0.999)),
			fmtNs(s.Hist.Max()),
		})
	}
	table(w, header, rows)
}

// RingSweep writes a Figure 9 style table: throughput per ring size plus
// the reference queue lines.
func RingSweep(w io.Writer, r *harness.RingSweepResult) {
	fmt.Fprintf(w, "Figure %s: %s\n\n", r.Spec.ID, r.Spec.Title)
	header := []string{"ring size", r.Spec.Queue}
	for _, ref := range r.RefNames {
		header = append(header, ref+" (ref)")
	}
	rows := [][]string{}
	for _, p := range r.Swept.Points {
		row := []string{fmt.Sprintf("2^%d", p.X), fmt.Sprintf("%.3f", p.Mops)}
		for _, ref := range r.References {
			row = append(row, fmt.Sprintf("%.3f", ref.Mops))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)
}

// BatchSweep writes a batch-size study table: item throughput and F&A cost
// per batch size, the amortization the batched reservation exists to show.
func BatchSweep(w io.Writer, r *harness.BatchSweepResult) {
	fmt.Fprintf(w, "Study %s: %s (%s, %d threads)\n\n",
		r.Spec.ID, r.Spec.Title, r.Spec.Queue, r.Spec.Threads)
	rows := [][]string{}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%.3f", p.Mops),
			fmt.Sprintf("%.3f", p.FAAPerItem),
			fmt.Sprintf("%d", p.Spills),
		})
	}
	table(w, []string{"batch", "Mops", "F&A/item", "spills"}, rows)
}

// Table writes a Table 2/3 style statistics table.
func Table(w io.Writer, r *harness.TableResult) {
	fmt.Fprintf(w, "Table %s: %s\n", r.Spec.ID, r.Spec.Title)
	fmt.Fprintf(w, "(instructions and cache-miss columns of the paper are substituted\n")
	fmt.Fprintf(w, " by software counters; 'casfail/op' measures the wasted work the\n")
	fmt.Fprintf(w, " paper's miss counts explain — see DESIGN.md §1)\n\n")
	header := []string{"config", "queue", "latency µs", "Mops/s", "atomics/op",
		"casfail/op", "retries/op"}
	rows := [][]string{}
	for _, c := range r.Cells {
		cfg := fmt.Sprintf("%d thr", c.Threads)
		if len(r.Spec.Prefills) > 1 {
			if c.Prefill > 0 {
				cfg += ", full"
			} else {
				cfg += ", empty"
			}
		}
		rows = append(rows, []string{
			cfg, c.Queue,
			fmt.Sprintf("%.3f", c.LatencyUs),
			fmt.Sprintf("%.3f", c.Mops),
			fmt.Sprintf("%.2f", c.AtomicsPerOp),
			fmt.Sprintf("%.3f", c.CASFailPerOp),
			fmt.Sprintf("%.3f", c.RetriesPerOp),
		})
	}
	table(w, header, rows)
}

// Chart draws a crude ASCII line chart of a figure (one letter per queue),
// useful for eyeballing shape in a terminal.
func Chart(w io.Writer, r *harness.FigureResult, height int) {
	if height < 4 {
		height = 10
	}
	maxY := 0.0
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Mops > maxY {
				maxY = p.Mops
			}
		}
	}
	if maxY == 0 || len(r.Series) == 0 {
		return
	}
	cols := len(r.Series[0].Points)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols*4))
	}
	for si, s := range r.Series {
		mark := byte('A' + si)
		for pi, p := range s.Points {
			row := height - 1 - int(p.Mops/maxY*float64(height-1))
			grid[row][pi*4] = mark
		}
	}
	fmt.Fprintf(w, "%.2f Mops/s\n", maxY)
	for _, line := range grid {
		fmt.Fprintf(w, "| %s\n", string(line))
	}
	fmt.Fprintf(w, "+%s\n  ", strings.Repeat("-", cols*4))
	for _, p := range r.Series[0].Points {
		fmt.Fprintf(w, "%-4d", p.X)
	}
	fmt.Fprintln(w, " threads")
	for si, s := range r.Series {
		fmt.Fprintf(w, "  %c = %s\n", byte('A'+si), s.Queue)
	}
}

func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2g ms", float64(ns)/1e6)
	case ns >= 1000:
		return fmt.Sprintf("%.3g µs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%d ns", ns)
	}
}

// table prints rows with columns padded to the widest entry.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range rows {
		line(row)
	}
}
