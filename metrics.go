package lcrq

import (
	"time"

	"lcrq/internal/core"
	"lcrq/internal/telemetry"
)

// LatencySummary summarizes one sampled latency series. Quantiles come from
// a log-bucketed histogram with ≈1.6% bucket resolution; Max is exact over
// the sampled operations.
type LatencySummary struct {
	Samples uint64
	Mean    time.Duration
	P50     time.Duration
	P99     time.Duration
	P999    time.Duration
	Max     time.Duration
}

// BatchSummary summarizes the accepted-size distribution of one batch
// operation series. Sizes share the latency histogram's log-bucket layout
// (≈1.6% resolution), with items in place of nanoseconds; Items is the exact
// total number of items moved by the summarized batches.
type BatchSummary struct {
	Batches uint64  // batch calls recorded
	Items   uint64  // total items accepted/returned across those calls
	Mean    float64 // mean accepted batch size
	P50     int64   // median accepted batch size
	P99     int64
	Max     int64
}

// Metrics is a live snapshot of the queue's telemetry. Counter aggregates
// lag each handle by at most one publication interval (256 ops); gauges are
// instantaneous but approximate under concurrency (see DESIGN.md §8).
//
// Without WithTelemetry, only the gauge fields (Depth, LiveRings,
// RecyclerRings, Closed) are populated — they are maintained by the queue
// core on its slow paths regardless of telemetry.
type Metrics struct {
	// Stats aggregates the operation counters of every handle the queue
	// has issued, including released ones.
	Stats Stats

	// Handles is the number of live (unreleased) handles, pooled
	// convenience handles included.
	Handles int

	// SampleN is the latency sampling stride (0 = latency sampling off).
	SampleN int

	// TraceSampleN is the item-trace sampling stride (WithTracing): 0 when
	// tracing is off, >0 for 1-in-N sampling, -1 when only forced traces
	// are stamped (WithForcedTracingOnly).
	TraceSampleN int

	// Depth approximates the number of queued items as the sum of per-ring
	// tail−head index deltas. Exact only on a quiescent queue.
	Depth int64

	// LiveRings is the number of ring segments currently linked in the
	// queue's list plus appends in flight, never above MaxRings;
	// RecyclerRings approximates the recycler pool's
	// population (an upper bound — the GC may drain pooled rings).
	LiveRings     int64
	RecyclerRings int64

	// Closed reports whether the queue has been closed to new enqueues.
	Closed bool

	// Resource governance (all zero on an unbounded queue). Capacity and
	// MaxRings are the configured budgets; Items is the item account a
	// capacity-bounded queue maintains: accepted values plus in-flight
	// reservations. It can exceed Capacity by at most one unit per
	// concurrent producer (a whole batch per batch producer) until the
	// gate's refund lands, and is exact when no enqueue is in flight
	// (unlike Depth, which is approximate). CapacityRejects counts
	// rejected enqueue attempts.
	Capacity        int64
	MaxRings        int
	Items           int64
	CapacityRejects uint64

	// OrphanRecoveries counts handles that were leaked without Release and
	// had their hazard records recovered by the finalizer.
	OrphanRecoveries uint64

	// Health is the watchdog's verdict (WithWatchdog); Verdict "disabled"
	// when no watchdog runs.
	Health Health

	// Per-operation sampled latency series. DequeueWait and EnqueueWait
	// time whole waits (sleeps included) and only successful ones.
	Enqueue     LatencySummary
	Dequeue     LatencySummary
	DequeueWait LatencySummary
	EnqueueWait LatencySummary

	// Sojourn is the sampled item ring-residency distribution (WithTracing):
	// how long stamped items sat in the queue between their enqueue deposit
	// and the dequeue that claimed them. Distinct from the operation
	// latencies above — a queue can have microsecond operations and
	// second-long sojourns when producers outpace consumers.
	Sojourn LatencySummary

	// Accepted batch-size distributions of the batch entry points (always
	// zero when the batch API is unused).
	EnqueueBatch BatchSummary
	DequeueBatch BatchSummary

	// RingEvents counts ring-lifecycle transitions by event name
	// (ring-close, ring-tantrum, ring-append, ring-recycle, ring-retire,
	// queue-close).
	RingEvents map[string]uint64

	// Chaos counts fault-injection firings by point name; all zero unless
	// the binary was built with -tags=chaos.
	Chaos map[string]uint64
}

// Event is one entry of the ring-lifecycle debugging trace.
type Event struct {
	Seq  uint64    // global event sequence number, 0-based
	Kind string    // event name, as in Metrics.RingEvents
	Time time.Time // when the transition happened
}

func summarize(l telemetry.LatencySnapshot) LatencySummary {
	s := LatencySummary{
		Samples: l.Samples,
		P50:     time.Duration(l.P50Ns),
		P99:     time.Duration(l.P99Ns),
		P999:    time.Duration(l.P999Ns),
		Max:     time.Duration(l.MaxNs),
	}
	if l.Samples > 0 {
		s.Mean = time.Duration(l.SumNs / int64(l.Samples))
	}
	return s
}

func summarizeBatch(l telemetry.LatencySnapshot) BatchSummary {
	s := BatchSummary{
		Batches: l.Samples,
		Items:   uint64(l.SumNs),
		P50:     l.P50Ns,
		P99:     l.P99Ns,
		Max:     l.MaxNs,
	}
	if l.Samples > 0 {
		s.Mean = float64(l.SumNs) / float64(l.Samples)
	}
	return s
}

// Metrics returns a live snapshot of the queue's telemetry. It is safe to
// call concurrently with all operations and never blocks them: counter
// aggregation reads atomically published per-handle snapshots, and the
// depth gauge walks the ring list with ordinary atomic loads.
func (q *Queue) Metrics() Metrics {
	var m Metrics
	h := q.pool.Get().(*Handle)
	m.Depth, _ = q.q.Depth(h.h)
	q.pool.Put(h)
	m.LiveRings = q.q.LiveRings()
	m.RecyclerRings = q.q.RecyclerSize()
	m.Closed = q.q.Closed()
	m.Capacity = q.q.Capacity()
	m.MaxRings = q.q.MaxRings()
	m.Items = q.q.Items()
	m.CapacityRejects = q.q.CapacityRejects()
	m.OrphanRecoveries = q.q.OrphanRecoveries()
	m.Health = q.Health()
	if q.tel == nil {
		return m
	}
	snap := q.tel.Snapshot()
	m.Stats = snap.Counters
	m.Handles = snap.Handles
	m.SampleN = snap.SampleN
	m.TraceSampleN = q.q.TraceSampleN()
	m.Sojourn = summarize(snap.Sojourn)
	m.Enqueue = summarize(snap.Latency[telemetry.KindEnqueue])
	m.Dequeue = summarize(snap.Latency[telemetry.KindDequeue])
	m.DequeueWait = summarize(snap.Latency[telemetry.KindDequeueWait])
	m.EnqueueWait = summarize(snap.Latency[telemetry.KindEnqueueWait])
	m.EnqueueBatch = summarizeBatch(snap.BatchSizes[telemetry.BatchEnqueue])
	m.DequeueBatch = summarizeBatch(snap.BatchSizes[telemetry.BatchDequeue])
	m.RingEvents = make(map[string]uint64, len(snap.EventCounts))
	for ev, n := range snap.EventCounts {
		m.RingEvents[core.RingEvent(ev).String()] = n
	}
	m.Chaos = make(map[string]uint64, len(snap.Chaos))
	for _, c := range snap.Chaos {
		m.Chaos[c.Point] = c.Fired
	}
	return m
}

// Events returns the queue's bounded ring-lifecycle trace, oldest first.
// The trace records the most recent ring closes (full and tantrum),
// appends, recycles, retires, and the Close transition; it is empty unless
// the queue was built with WithTelemetry. Reading is lock-free and
// best-effort: entries being overwritten concurrently are skipped.
func (q *Queue) Events() []Event {
	if q.tel == nil {
		return nil
	}
	evs := q.tel.Events()
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = Event{Seq: e.Seq, Kind: e.Kind.String(), Time: e.Time}
	}
	return out
}
