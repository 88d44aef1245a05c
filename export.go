package lcrq

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// MetricsHandler returns an http.Handler that serves the queue's telemetry
// in the Prometheus text exposition format (version 0.0.4), with zero
// dependencies beyond the standard library. Mount it wherever the scraper
// looks, e.g.:
//
//	http.Handle("/metrics", q.MetricsHandler())
//
// Counter and latency series require WithTelemetry; the gauges
// (lcrq_queue_depth, lcrq_live_rings, lcrq_recycler_rings, lcrq_closed) are
// served regardless. Latencies are exported as summaries in seconds.
func (q *Queue) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, q.Metrics())
	})
}

// WritePrometheus writes the metrics snapshot m to w in the Prometheus text
// exposition format (version 0.0.4). MetricsHandler uses it; servers that
// compose the queue's series with their own on one scrape endpoint (e.g.
// cmd/qserve appending its shed/drain/retry counters) call it directly.
func WritePrometheus(w io.Writer, m Metrics) { writeProm(w, m) }

// PublishExpvar publishes the queue's Metrics under the given name in the
// process-wide expvar registry (served at /debug/vars by the default mux).
// Each read of the variable takes a fresh snapshot. Like expvar.Publish it
// panics if the name is already registered, so give each queue its own.
func (q *Queue) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return q.Metrics() }))
}

func writeProm(b io.Writer, m Metrics) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	gauge("lcrq_queue_depth", "Approximate number of queued items (tail-head index delta).", m.Depth)
	gauge("lcrq_live_rings", "Ring segments currently linked in the queue.", m.LiveRings)
	gauge("lcrq_recycler_rings", "Approximate ring segments parked in the recycler (upper bound).", m.RecyclerRings)
	closed := int64(0)
	if m.Closed {
		closed = 1
	}
	gauge("lcrq_closed", "1 once the queue has been closed to new enqueues.", closed)
	gauge("lcrq_handles", "Live per-goroutine handles.", int64(m.Handles))
	gauge("lcrq_latency_sample_stride", "Latency sampling stride N (0 = sampling off).", int64(m.SampleN))
	gauge("lcrq_capacity", "Configured item bound (0 = unbounded).", m.Capacity)
	gauge("lcrq_max_rings", "Configured ring-segment budget (0 = unbounded).", int64(m.MaxRings))
	gauge("lcrq_items", "Exact in-flight items on a capacity-bounded queue (0 on unbounded).", m.Items)
	counter("lcrq_capacity_rejects_total", "Enqueue attempts rejected by the item or ring budget.", m.CapacityRejects)
	counter("lcrq_orphan_recoveries_total", "Leaked handles recovered by the orphan finalizer.", m.OrphanRecoveries)
	wdOK := int64(0)
	if m.Health.OK {
		wdOK = 1
	}
	fmt.Fprintf(b, "# HELP lcrq_watchdog_ok 1 while the watchdog's latest verdict is healthy (also 1 when disabled).\n# TYPE lcrq_watchdog_ok gauge\nlcrq_watchdog_ok{verdict=%q} %d\n", m.Health.Verdict, wdOK)
	counter("lcrq_watchdog_checks_total", "Watchdog inspection ticks completed.", m.Health.Checks)

	s := m.Stats
	counter("lcrq_enqueues_total", "Completed enqueue operations.", s.Enqueues)
	counter("lcrq_dequeues_total", "Completed dequeue operations, empty results included.", s.Dequeues)
	counter("lcrq_dequeue_empty_total", "Dequeues that found the queue empty.", s.Empty)
	counter("lcrq_faa_total", "Fetch-and-add instructions issued.", s.FetchAdds)
	counter("lcrq_swap_total", "Swap (XCHG) instructions issued.", s.Swaps)
	counter("lcrq_tas_total", "Test-and-set instructions issued.", s.TestAndSets)
	counter("lcrq_cas_total", "Single-width CAS attempts.", s.CASAttempts)
	counter("lcrq_cas_failures_total", "Single-width CAS attempts that failed.", s.CASFailures)
	counter("lcrq_cas2_total", "Double-width CAS attempts.", s.CAS2Attempts)
	counter("lcrq_cas2_failures_total", "Double-width CAS attempts that failed.", s.CAS2Failures)
	counter("lcrq_cell_retries_total", "Extra head/tail fetch-and-adds beyond the first.", s.CellRetries)
	counter("lcrq_empty_transitions_total", "Empty transitions performed by dequeuers.", s.EmptyTransitions)
	counter("lcrq_unsafe_transitions_total", "Unsafe transitions performed by dequeuers.", s.UnsafeTransitions)
	counter("lcrq_spin_waits_total", "Bounded dequeuer waits for a matching enqueuer.", s.SpinWaits)
	counter("lcrq_threshold_empties_total", "SCQ emptiness verdicts reached via the threshold trick.", s.ThresholdEmpties)
	counter("lcrq_free_empties_total", "SCQ enqueues that found the free-index queue empty (ring full).", s.FreeEmpties)
	counter("lcrq_ring_closes_total", "Ring segments closed.", s.RingCloses)
	counter("lcrq_ring_appends_total", "Ring segments appended to the list.", s.RingAppends)
	counter("lcrq_ring_recycles_total", "Appended segments satisfied from the recycler.", s.RingRecycles)
	counter("lcrq_batch_enqueues_total", "EnqueueBatch calls (items count in lcrq_enqueues_total).", s.BatchEnqueues)
	counter("lcrq_batch_dequeues_total", "DequeueBatch calls (items count in lcrq_dequeues_total).", s.BatchDequeues)
	counter("lcrq_batch_spills_total", "Batches that spilled into a freshly appended ring.", s.BatchSpills)
	counter("lcrq_gate_spins_total", "Hierarchical cluster-gate spin iterations.", s.GateSpins)
	gauge("lcrq_trace_sample_stride", "Item-trace sampling stride N (0 = tracing off, -1 = forced-only).", int64(m.TraceSampleN))
	counter("lcrq_trace_arms_total", "Item traces armed on the enqueue side (sampled + forced).", s.TraceArms)
	counter("lcrq_trace_hits_total", "Stamped items claimed and measured by dequeues.", s.TraceHits)

	if len(m.RingEvents) > 0 {
		fmt.Fprintf(b, "# HELP lcrq_ring_events_total Ring-lifecycle transitions by event.\n# TYPE lcrq_ring_events_total counter\n")
		for _, name := range sortedKeys(m.RingEvents) {
			fmt.Fprintf(b, "lcrq_ring_events_total{event=%q} %d\n", name, m.RingEvents[name])
		}
	}
	if len(m.Chaos) > 0 {
		fmt.Fprintf(b, "# HELP lcrq_chaos_fired_total Fault-injection firings by point (zero without -tags=chaos).\n# TYPE lcrq_chaos_fired_total counter\n")
		for _, name := range sortedKeys(m.Chaos) {
			fmt.Fprintf(b, "lcrq_chaos_fired_total{point=%q} %d\n", name, m.Chaos[name])
		}
	}

	fmt.Fprintf(b, "# HELP lcrq_op_latency_seconds Sampled operation latency by op.\n# TYPE lcrq_op_latency_seconds summary\n")
	for _, series := range []struct {
		op  string
		lat LatencySummary
	}{
		{"enqueue", m.Enqueue},
		{"dequeue", m.Dequeue},
		{"dequeue_wait", m.DequeueWait},
		{"enqueue_wait", m.EnqueueWait},
	} {
		for _, qv := range []struct {
			q string
			v float64
		}{
			{"0.5", series.lat.P50.Seconds()},
			{"0.99", series.lat.P99.Seconds()},
			{"0.999", series.lat.P999.Seconds()},
		} {
			fmt.Fprintf(b, "lcrq_op_latency_seconds{op=%q,quantile=%q} %g\n", series.op, qv.q, qv.v)
		}
		sum := float64(series.lat.Mean.Seconds()) * float64(series.lat.Samples)
		fmt.Fprintf(b, "lcrq_op_latency_seconds_sum{op=%q} %g\n", series.op, sum)
		fmt.Fprintf(b, "lcrq_op_latency_seconds_count{op=%q} %d\n", series.op, series.lat.Samples)
	}

	fmt.Fprintf(b, "# HELP lcrq_sojourn_seconds Sampled item ring residency (enqueue deposit to dequeue claim).\n# TYPE lcrq_sojourn_seconds summary\n")
	for _, qv := range []struct {
		q string
		v float64
	}{
		{"0.5", m.Sojourn.P50.Seconds()},
		{"0.99", m.Sojourn.P99.Seconds()},
		{"0.999", m.Sojourn.P999.Seconds()},
	} {
		fmt.Fprintf(b, "lcrq_sojourn_seconds{quantile=%q} %g\n", qv.q, qv.v)
	}
	fmt.Fprintf(b, "lcrq_sojourn_seconds_sum %g\n", m.Sojourn.Mean.Seconds()*float64(m.Sojourn.Samples))
	fmt.Fprintf(b, "lcrq_sojourn_seconds_count %d\n", m.Sojourn.Samples)

	fmt.Fprintf(b, "# HELP lcrq_batch_size Accepted batch sizes by op (items; _sum is items, _count is batches).\n# TYPE lcrq_batch_size summary\n")
	for _, series := range []struct {
		op string
		bs BatchSummary
	}{
		{"enqueue_batch", m.EnqueueBatch},
		{"dequeue_batch", m.DequeueBatch},
	} {
		for _, qv := range []struct {
			q string
			v int64
		}{
			{"0.5", series.bs.P50},
			{"0.99", series.bs.P99},
		} {
			fmt.Fprintf(b, "lcrq_batch_size{op=%q,quantile=%q} %d\n", series.op, qv.q, qv.v)
		}
		fmt.Fprintf(b, "lcrq_batch_size_sum{op=%q} %d\n", series.op, series.bs.Items)
		fmt.Fprintf(b, "lcrq_batch_size_count{op=%q} %d\n", series.op, series.bs.Batches)
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
