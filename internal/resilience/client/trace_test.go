package client

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"lcrq"
	"lcrq/internal/resilience"
	"lcrq/internal/resilience/server"
)

// TestSpansAccounting: a shed first attempt followed by an accept must show
// up in the Spans decomposition — one backoff sleep between two wire
// exchanges, with the parts bounded by the total.
func TestSpansAccounting(t *testing.T) {
	fake := &fakeServer{steps: []fakeStep{
		{status: 429, body: resilience.ErrorResponse{Error: resilience.ErrTokenShedding}},
		{status: 200, body: resilience.EnqueueResponse{Accepted: 2, TraceID: "0x9"}},
	}}
	ts := httptest.NewServer(fake.handler(t))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, BackoffMin: 5 * time.Millisecond, BackoffMax: 5 * time.Millisecond})
	n, sp, err := c.EnqueueTraced(context.Background(), "k1", []uint64{1, 2}, time.Second, 9)
	if err != nil || n != 2 {
		t.Fatalf("EnqueueTraced = %d, %v", n, err)
	}
	if sp.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", sp.Attempts)
	}
	if sp.Backoff <= 0 {
		t.Fatalf("Backoff = %v, want > 0 (one retry sleep)", sp.Backoff)
	}
	if sp.Wire <= 0 || sp.LastWire <= 0 || sp.LastWire > sp.Wire {
		t.Fatalf("Wire = %v, LastWire = %v", sp.Wire, sp.LastWire)
	}
	if sp.Total < sp.Backoff+sp.Wire {
		t.Fatalf("Total %v < Backoff %v + Wire %v", sp.Total, sp.Backoff, sp.Wire)
	}
	// The retry resent the same trace identity.
	fake.mu.Lock()
	defer fake.mu.Unlock()
	if len(fake.seen) != 2 || fake.seen[0].TraceID != "0x9" || fake.seen[1].TraceID != "0x9" {
		t.Fatalf("trace IDs across attempts: %+v", fake.seen)
	}
}

// TestClientTraceRoundTrip runs the real server underneath: EnqueueTraced's
// identity comes back on DequeueTraced with a sojourn, closing the
// client→wire→queue→wire→client loop in one process. The stamp and claim
// instant must fall inside the calls, and the spans of DESIGN.md §13.3 must
// add up to the round trip.
func TestClientTraceRoundTrip(t *testing.T) {
	q := lcrq.New(lcrq.WithForcedTracingOnly())
	srv := server.New(server.Config{Queue: q})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	c := New(Config{BaseURL: ts.URL})
	const id uint64 = 0xabcdef0123456789
	// The item waits at least this long, so a sojourn in the wrong unit shows.
	const residency = 2 * time.Millisecond
	t0 := time.Now()
	n, esp, err := c.EnqueueTraced(context.Background(), "", []uint64{11, 12}, time.Second, id)
	t1 := time.Now()
	if err != nil || n != 2 {
		t.Fatalf("EnqueueTraced = %d, %v", n, err)
	}
	time.Sleep(residency)
	vals, traces, sp, err := c.DequeueTraced(context.Background(), 4, 0)
	t2 := time.Now()
	if err != nil {
		t.Fatalf("DequeueTraced: %v", err)
	}
	if len(vals) != 2 || vals[0] != 11 {
		t.Fatalf("values = %v", vals)
	}
	if len(traces) != 1 {
		t.Fatalf("traces = %+v, want 1", traces)
	}
	got, err := resilience.ParseTraceID(traces[0].ID)
	if err != nil || got != id {
		t.Fatalf("trace ID = %s (%v), want %#x", traces[0].ID, err, id)
	}
	if traces[0].SojournNs < 0 || traces[0].Pos != 0 {
		t.Fatalf("trace = %+v", traces[0])
	}
	if sp.Attempts != 1 || sp.Backoff != 0 {
		t.Fatalf("dequeue spans = %+v, want single clean attempt", sp)
	}
	tr := traces[0]
	stamp, claim := time.Unix(0, tr.EnqueuedAtUnixNs), time.Unix(0, tr.EnqueuedAtUnixNs+tr.SojournNs)
	if stamp.Before(t0) || stamp.After(t1) {
		t.Fatalf("stamp %v outside the enqueue call [%v, %v]", stamp, t0, t1)
	}
	if claim.Before(t1.Add(residency)) || claim.After(t2) {
		t.Fatalf("claim %v (sojourn %v) outside [T1+%v, T2] = [%v, %v]",
			claim, time.Duration(tr.SojournNs), residency, t1.Add(residency), t2)
	}
	// The spans partition T2−T0; only a residency clamped at zero leaves a
	// gap.
	backoff, shedWait := esp.Backoff, t1.Sub(t0)-esp.Backoff
	queueResidency, delivery := max(claim.Sub(t1), 0), t2.Sub(claim)
	if rtt, sum := t2.Sub(t0), backoff+shedWait+queueResidency+delivery; (sum - rtt).Abs() > rtt/20 {
		t.Fatalf("spans backoff %v + shed_wait %v + queue_residency %v + delivery %v = %v miss the RTT %v by more than 5%%",
			backoff, shedWait, queueResidency, delivery, sum, rtt)
	}
}
