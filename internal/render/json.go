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

// JSONFigure writes a throughput figure as JSON.
func JSONFigure(w io.Writer, r *harness.FigureResult) error {
	return encode(w, map[string]any{
		"figure":    r.Spec.ID,
		"title":     r.Spec.Title,
		"series":    r.Series,
		"simulated": r.Simulated,
		"pinned":    r.Pinned,
		"host_cpus": r.HostCPUs,
		"host_pkgs": r.HostPkgs,
		"pairs":     r.Scale.Pairs,
		"runs":      r.Scale.Runs,
	})
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

// JSONBatchSweep writes a batch-size study as JSON.
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
// "meta" (commit, GOMAXPROCS, timestamp — see internal/buildmeta), so any
// two JSON outputs say which tree and configuration produced them.
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
