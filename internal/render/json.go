package render

import (
	"encoding/json"
	"io"

	"lcrq/internal/buildmeta"
	"lcrq/internal/harness"
)

// jsonLatencySeries is the marshal-friendly form of a latency series (the
// histogram itself has unexported internals; quantiles are what downstream
// tooling wants anyway).
type jsonLatencySeries struct {
	Queue     string           `json:"queue"`
	MeanNs    float64          `json:"mean_ns"`
	Count     uint64           `json:"count"`
	Quantiles map[string]int64 `json:"quantiles_ns"`
}

// JSONFigure writes a throughput figure as JSON. Governed runs (qbench
// -capacity / -watchdog) additionally carry the per-point budget outcomes,
// so the sidecar records both the throughput and how the budgets fared.
func JSONFigure(w io.Writer, r *harness.FigureResult) error {
	out := map[string]any{
		"figure":    r.Spec.ID,
		"title":     r.Spec.Title,
		"series":    r.Series,
		"simulated": r.Simulated,
		"pinned":    r.Pinned,
		"host_cpus": r.HostCPUs,
		"host_pkgs": r.HostPkgs,
		"pairs":     r.Scale.Pairs,
		"runs":      r.Scale.Runs,
	}
	if len(r.Governance) > 0 {
		out["capacity"] = r.Scale.Capacity
		if r.Scale.Watchdog > 0 {
			out["watchdog"] = r.Scale.Watchdog.String()
		}
		out["governance"] = r.Governance
	}
	return encode(w, out)
}

// JSONLatency writes a latency figure as JSON.
func JSONLatency(w io.Writer, r *harness.LatencyResult) error {
	series := make([]jsonLatencySeries, 0, len(r.Series))
	for _, s := range r.Series {
		series = append(series, jsonLatencySeries{
			Queue:  s.Queue,
			MeanNs: s.MeanNs,
			Count:  s.Hist.Count(),
			Quantiles: map[string]int64{
				"p50":   s.Hist.Quantile(0.50),
				"p80":   s.Hist.Quantile(0.80),
				"p97":   s.Hist.Quantile(0.97),
				"p99":   s.Hist.Quantile(0.99),
				"p99.9": s.Hist.Quantile(0.999),
				"max":   s.Hist.Max(),
			},
		})
	}
	return encode(w, map[string]any{
		"figure": r.Spec.ID,
		"title":  r.Spec.Title,
		"series": series,
	})
}

// JSONRingSweep writes a Figure 9 sweep as JSON.
func JSONRingSweep(w io.Writer, r *harness.RingSweepResult) error {
	refs := map[string]float64{}
	for i, name := range r.RefNames {
		refs[name] = r.References[i].Mops
	}
	return encode(w, map[string]any{
		"figure":     r.Spec.ID,
		"title":      r.Spec.Title,
		"queue":      r.Spec.Queue,
		"swept":      r.Swept.Points,
		"references": refs,
	})
}

// JSONBatchSweep writes a batch-size study as JSON — the shape archived as
// BENCH_batch.json by CI, so successive runs form a trajectory of the
// F&A-per-item amortization.
func JSONBatchSweep(w io.Writer, r *harness.BatchSweepResult) error {
	return encode(w, map[string]any{
		"figure":  r.Spec.ID,
		"title":   r.Spec.Title,
		"queue":   r.Spec.Queue,
		"threads": r.Spec.Threads,
		"points":  r.Points,
	})
}

// encode writes v as indented JSON with the run's provenance stamped in as
// "meta" (commit, GOMAXPROCS, timestamp — see internal/buildmeta). Every
// sidecar gets the stamp, so any two BENCH_*.json artifacts are directly
// comparable without out-of-band notes about which tree produced them.
func encode(w io.Writer, v map[string]any) error {
	v["meta"] = buildmeta.Collect()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// JSONTable writes a statistics table as JSON.
func JSONTable(w io.Writer, r *harness.TableResult) error {
	return encode(w, map[string]any{
		"table": r.Spec.ID,
		"title": r.Spec.Title,
		"cells": r.Cells,
	})
}
