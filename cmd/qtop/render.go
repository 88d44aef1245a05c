package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"lcrq/internal/instrument"
)

// statsz mirrors the slice of qserve's GET /statsz document qtop renders.
// Unknown fields are ignored, so qtop degrades gracefully against newer or
// older servers.
type statsz struct {
	Build struct {
		Commit     string `json:"commit"`
		Dirty      bool   `json:"dirty"`
		GoMaxProcs int    `json:"gomaxprocs"`
	} `json:"build"`
	State string `json:"state"`
	Shed  struct {
		Shedding bool   `json:"shedding"`
		Verdict  string `json:"verdict"`
		Opens    uint64 `json:"opens"`
	} `json:"shed"`
	Health struct {
		OK      bool   `json:"OK"`
		Verdict string `json:"Verdict"`
		Detail  string `json:"Detail"`
	} `json:"health"`
	Counters     map[string]uint64   `json:"counters"`
	Depth        int64               `json:"depth"`
	Items        int64               `json:"items"`
	Capacity     int64               `json:"capacity"`
	DrainRate    float64             `json:"drain_rate"`
	Stats        instrument.Counters `json:"stats"`
	Latency      map[string]latencyz `json:"latency"`
	Sojourn      latencyz            `json:"sojourn"`
	TraceSampleN int                 `json:"trace_sample_n"`
}

type latencyz struct {
	Samples uint64 `json:"samples"`
	MeanNs  int64  `json:"mean_ns"`
	P50Ns   int64  `json:"p50_ns"`
	P99Ns   int64  `json:"p99_ns"`
	P999Ns  int64  `json:"p999_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// rate turns a counter delta over dt into a per-second figure.
func rate(cur, prev uint64, dt time.Duration) float64 {
	if dt <= 0 || cur < prev {
		return 0
	}
	return float64(cur-prev) / dt.Seconds()
}

func ns(v int64) string {
	switch d := time.Duration(v); {
	case d <= 0:
		return "-"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return d.Round(100 * time.Millisecond).String()
	}
}

// render writes one dashboard screen: cur against prev over dt for the rate
// columns. prev == nil (the first poll) renders gauges and quantiles only.
func render(w io.Writer, url string, cur, prev *statsz, dt time.Duration) {
	commit := cur.Build.Commit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	if cur.Build.Dirty {
		commit += "+dirty"
	}
	fmt.Fprintf(w, "qtop — %s   state=%s   commit=%s   gomaxprocs=%d\n",
		url, cur.State, commit, cur.Build.GoMaxProcs)

	health := "OK"
	if !cur.Health.OK {
		health = fmt.Sprintf("ALERT %s", cur.Health.Verdict)
		if cur.Health.Detail != "" {
			health += " (" + cur.Health.Detail + ")"
		}
	} else if cur.Health.Verdict != "" && cur.Health.Verdict != "ok" {
		health = cur.Health.Verdict
	}
	shed := "admitting"
	if cur.Shed.Shedding {
		shed = fmt.Sprintf("SHEDDING (%s)", cur.Shed.Verdict)
	}
	fmt.Fprintf(w, "health: %-40s shed: %s (opens %d)\n", health, shed, cur.Shed.Opens)

	cap := "∞"
	if cur.Capacity > 0 {
		cap = fmt.Sprintf("%d", cur.Capacity)
	}
	fmt.Fprintf(w, "depth: %-8d items: %-8d capacity: %-8s drain-rate: %.0f/s\n",
		cur.Depth, cur.Items, cap, cur.DrainRate)

	if prev != nil {
		fmt.Fprintf(w, "rates: enq %.0f/s   deq %.0f/s   empty %.0f/s",
			rate(cur.Stats.Enqueues, prev.Stats.Enqueues, dt),
			rate(cur.Stats.Dequeues, prev.Stats.Dequeues, dt),
			rate(cur.Stats.Empty, prev.Stats.Empty, dt))
		if cur.Counters != nil && prev.Counters != nil {
			fmt.Fprintf(w, "   accepted %.0f/s   delivered %.0f/s   shed %.0f/s",
				rate(cur.Counters["lcrq_qserve_items_accepted_total"], prev.Counters["lcrq_qserve_items_accepted_total"], dt),
				rate(cur.Counters["lcrq_qserve_items_delivered_total"], prev.Counters["lcrq_qserve_items_delivered_total"], dt),
				rate(cur.Counters["lcrq_qserve_shed_rejects_total"], prev.Counters["lcrq_qserve_shed_rejects_total"], dt))
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %12s\n", "latency", "p50", "p99", "p99.9", "max", "samples")
	names := make([]string, 0, len(cur.Latency))
	for name := range cur.Latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := cur.Latency[name]
		if l.Samples == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %12d\n",
			name, ns(l.P50Ns), ns(l.P99Ns), ns(l.P999Ns), ns(l.MaxNs), l.Samples)
	}
	if cur.Sojourn.Samples > 0 {
		fmt.Fprintf(w, "%-14s %10s %10s %10s %10s %12d\n",
			"sojourn", ns(cur.Sojourn.P50Ns), ns(cur.Sojourn.P99Ns), ns(cur.Sojourn.P999Ns), ns(cur.Sojourn.MaxNs), cur.Sojourn.Samples)
	}

	trace := "off"
	switch {
	case cur.TraceSampleN > 0:
		trace = fmt.Sprintf("1-in-%d", cur.TraceSampleN)
	case cur.TraceSampleN < 0:
		trace = "forced-only"
	}
	fmt.Fprintf(w, "tracing: %s   arms %d   hits %d\n", trace, cur.Stats.TraceArms, cur.Stats.TraceHits)
}

// clearScreen is the ANSI home+clear prefix the live loop prints between
// frames.
const clearScreen = "\x1b[H\x1b[2J"

// sanity reports a short diagnosis for snapshots that decode but look empty
// (wrong URL, or a server without telemetry).
func sanity(cur *statsz) string {
	var b strings.Builder
	if cur.State == "" {
		b.WriteString("no lifecycle state in response — is the URL a qserve /statsz endpoint?")
	}
	return b.String()
}
