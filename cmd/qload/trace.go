package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"lcrq"
	"lcrq/internal/resilience"
	"lcrq/internal/resilience/client"
)

// traceSpan is one traced request's end-to-end decomposition. The four span
// fields partition the measured RTT by construction:
//
//	rtt = client_backoff + shed_wait + queue_residency + delivery
//
// client_backoff is time the client library slept between retry attempts;
// shed_wait is the rest of the pre-deposit interval (wire transit plus
// server admission — attempts the server turned away live here);
// queue_residency is from the enqueue's response back to the server-side
// dequeue claim (the item's wait for a consumer, anchored by the stamped
// sojourn); delivery is from that claim to the dequeue response landing at
// the client. All clocks are one machine's, so the anchoring needs no skew
// correction — only a clamp at the enqueue-response edge, reported as gap.
type traceSpan struct {
	RTTMs            float64
	ClientBackoffMs  float64
	ShedWaitMs       float64
	QueueResidencyMs float64
	DeliveryMs       float64
	GapPct           float64 // |sum of spans − rtt| / rtt, percent
}

// traceResult is the outcome of the traced-probe phase.
type traceResult struct {
	Probes            int
	MaxGapPct         float64
	SojournP50Ms      float64 // server /statsz sojourn quantiles
	SojournP99Ms      float64
	PrometheusSojourn bool // lcrq_sojourn_seconds present on /metrics
	Exemplar          traceSpan
}

// runTraceProbe drives traced requests through a fresh server and verifies
// the cross-layer decomposition: each probe's RTT must be fully attributed
// to the four spans, and the server must surface the sojourn distribution
// on both /statsz and /metrics.
func runTraceProbe(qservePath string, probes int) (*traceResult, error) {
	p, err := spawnQserve(qservePath, 0)
	if err != nil {
		return nil, err
	}
	defer p.kill()

	ctx := context.Background()
	prod := client.New(client.Config{BaseURL: p.base})
	cons := client.New(client.Config{BaseURL: p.base})
	res := &traceResult{Probes: probes}

	for i := 0; i < probes; i++ {
		id := lcrq.NewTraceID()
		want := resilience.FormatTraceID(id)
		t0 := time.Now()
		n, sp, err := prod.EnqueueTraced(ctx, "", []uint64{uint64(i) + 1}, time.Second, id)
		t1 := time.Now()
		if err != nil || n != 1 {
			return nil, fmt.Errorf("probe %d enqueue: n=%d %w", i, n, err)
		}

		// Consume until this probe's trace comes back (the queue is private
		// to the probe, so the first non-empty dequeue has it).
		var hit *resilience.WireTrace
		var t2 time.Time
		for deadline := time.Now().Add(5 * time.Second); hit == nil; {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("probe %d: trace %s never delivered", i, want)
			}
			_, traces, _, err := cons.DequeueTraced(ctx, 8, 250*time.Millisecond)
			t2 = time.Now()
			if err != nil {
				return nil, fmt.Errorf("probe %d dequeue: %w", i, err)
			}
			for j := range traces {
				if traces[j].ID == want {
					hit = &traces[j]
				}
			}
		}

		span := decompose(t0, t1, t2, sp, hit)
		if span.GapPct > res.MaxGapPct {
			res.MaxGapPct = span.GapPct
		}
		if i == 0 {
			res.Exemplar = span
		}
	}

	// The sojourn distribution the probes produced must be visible on both
	// observability surfaces.
	var stats struct {
		Sojourn struct {
			Samples uint64 `json:"samples"`
			P50Ns   int64  `json:"p50_ns"`
			P99Ns   int64  `json:"p99_ns"`
		} `json:"sojourn"`
	}
	resp, err := http.Get(p.base + "/statsz")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/statsz: %w", err)
	}
	if stats.Sojourn.Samples < uint64(probes) {
		return nil, fmt.Errorf("sojourn samples = %d on /statsz, want >= %d", stats.Sojourn.Samples, probes)
	}
	res.SojournP50Ms = float64(stats.Sojourn.P50Ns) / 1e6
	res.SojournP99Ms = float64(stats.Sojourn.P99Ns) / 1e6

	resp, err = http.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.PrometheusSojourn = strings.Contains(string(prom), "lcrq_sojourn_seconds")
	return res, nil
}

// decompose attributes one probe's RTT to the four spans. The server-side
// claim instant is anchored as enqueue-stamp + sojourn; the residency span
// is clamped at the enqueue-response edge (the stamp lands a hair before
// the response returns), and whatever the clamp absorbed is the reported
// gap — with one clock, that gap is measurement resolution, not drift.
func decompose(t0, t1, t2 time.Time, sp client.Spans, hit *resilience.WireTrace) traceSpan {
	rtt := t2.Sub(t0)
	backoff := sp.Backoff
	shedWait := t1.Sub(t0) - backoff
	claim := time.Unix(0, hit.EnqueuedAtUnixNs+hit.SojournNs)
	residency := claim.Sub(t1)
	var gap time.Duration
	if residency < 0 {
		gap = -residency
		residency = 0
	}
	delivery := t2.Sub(t1) - residency

	s := traceSpan{
		RTTMs:            float64(rtt.Nanoseconds()) / 1e6,
		ClientBackoffMs:  float64(backoff.Nanoseconds()) / 1e6,
		ShedWaitMs:       float64(shedWait.Nanoseconds()) / 1e6,
		QueueResidencyMs: float64(residency.Nanoseconds()) / 1e6,
		DeliveryMs:       float64(delivery.Nanoseconds()) / 1e6,
	}
	if rtt > 0 {
		s.GapPct = 100 * float64(gap.Nanoseconds()) / float64(rtt.Nanoseconds())
	}
	return s
}
