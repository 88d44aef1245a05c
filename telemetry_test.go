package lcrq

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTelemetryLiveScrape hammers the queue with producers and consumers
// while scrapers concurrently read Metrics, Events, and the Prometheus
// endpoint. Run under -race this proves the aggregation path is free of
// torn reads; the monotonicity and final-consistency checks prove the
// snapshots are not garbage.
func TestTelemetryLiveScrape(t *testing.T) {
	q := New(WithTelemetry(), WithLatencySampling(64), WithRingSize(128))
	const workers = 4
	const perWorker = 20000

	var wg sync.WaitGroup
	var produced, consumed atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < perWorker; i++ {
				if h.Enqueue(uint64(w)<<32 | uint64(i)) {
					produced.Add(1)
				}
				if _, ok := h.Dequeue(); ok {
					consumed.Add(1)
				}
			}
		}(w)
	}

	srv := httptest.NewServer(q.MetricsHandler())
	defer srv.Close()

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	var lastEnq uint64
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := q.Metrics()
			if m.Stats.Enqueues < lastEnq {
				t.Errorf("aggregate enqueues went backwards: %d -> %d", lastEnq, m.Stats.Enqueues)
				return
			}
			lastEnq = m.Stats.Enqueues
			if m.Depth < 0 || m.LiveRings < 1 {
				t.Errorf("implausible gauges: depth=%d rings=%d", m.Depth, m.LiveRings)
				return
			}
			_ = q.Events()
		}
	}()
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := srv.Client().Get(srv.URL)
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), "lcrq_enqueues_total") {
				t.Errorf("scrape missing counter series:\n%s", body)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	if t.Failed() {
		return
	}

	// All worker handles released: their final counters are folded into the
	// retired totals, so the aggregate is now exact.
	m := q.Metrics()
	if m.Stats.Enqueues != produced.Load() {
		t.Fatalf("final enqueues = %d, want %d", m.Stats.Enqueues, produced.Load())
	}
	if got := m.Stats.Dequeues - m.Stats.Empty; got != consumed.Load() {
		t.Fatalf("final successful dequeues = %d, want %d", got, consumed.Load())
	}
	if want := int64(produced.Load() - consumed.Load()); m.Depth != want {
		t.Fatalf("quiescent depth = %d, want %d", m.Depth, want)
	}
	if m.Enqueue.Samples == 0 || m.Dequeue.Samples == 0 {
		t.Fatalf("no latency samples at stride 64 over %d ops", workers*perWorker*2)
	}
	if m.Enqueue.P50 > m.Enqueue.P999 || m.Enqueue.P999 > m.Enqueue.Max {
		t.Fatalf("latency quantiles not ordered: %+v", m.Enqueue)
	}
}

func TestMetricsWithoutTelemetry(t *testing.T) {
	q := New()
	h := q.NewHandle()
	defer h.Release()
	for i := 0; i < 100; i++ {
		h.Enqueue(uint64(i))
	}
	m := q.Metrics()
	if m.Depth != 100 {
		t.Fatalf("Depth = %d, want 100 (gauges work without telemetry)", m.Depth)
	}
	if m.LiveRings < 1 {
		t.Fatalf("LiveRings = %d", m.LiveRings)
	}
	if m.Stats.Enqueues != 0 || m.Handles != 0 {
		t.Fatalf("counter aggregation should be off without telemetry: %+v", m)
	}
	if q.Events() != nil {
		t.Fatal("Events should be nil without telemetry")
	}
	// The Prometheus endpoint still serves the gauges.
	rec := httptest.NewRecorder()
	q.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "lcrq_queue_depth 100") {
		t.Fatalf("endpoint missing depth gauge:\n%s", rec.Body.String())
	}
}

// TestPrometheusEndpointSeries checks that a live queue's endpoint serves
// every series of the golden document (TestPrometheusGolden), with the
// values this workload determines.
func TestPrometheusEndpointSeries(t *testing.T) {
	q := New(WithTelemetry(), WithLatencySampling(1), WithRingSize(2), WithStarvationLimit(1))
	h := q.NewHandle()
	// A tiny ring plus a tantrum-happy starvation limit forces ring churn,
	// so the lifecycle series carry nonzero values.
	for i := 0; i < 200; i++ {
		h.Enqueue(uint64(i))
	}
	for i := 0; i < 200; i++ {
		h.Dequeue()
	}
	h.Dequeue() // one empty result
	h.Release()
	q.Close()

	rec := httptest.NewRecorder()
	q.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			want = append(want, line)
		}
	}
	want = append(want,
		"lcrq_closed 1", "lcrq_latency_sample_stride 1",
		"lcrq_enqueues_total 200", "lcrq_dequeues_total 201", "lcrq_dequeue_empty_total 1",
		`lcrq_ring_events_total{event="ring-append"}`,
		`lcrq_ring_events_total{event="queue-close"} 1`,
		`lcrq_chaos_fired_total{point="enq-cas2-fail"}`,
	)
	for _, series := range want {
		if !strings.Contains(body, series) {
			t.Errorf("endpoint missing series %q", series)
		}
	}
	if t.Failed() {
		t.Logf("body:\n%s", body)
	}
}

func TestEventsTraceRecordsRingChurn(t *testing.T) {
	q := New(WithTelemetry(), WithRingSize(2), WithStarvationLimit(1))
	h := q.NewHandle()
	for i := 0; i < 64; i++ {
		h.Enqueue(uint64(i))
	}
	for i := 0; i < 64; i++ {
		h.Dequeue()
	}
	h.Release()
	q.Close()

	kinds := map[string]bool{}
	evs := q.Events()
	for i, e := range evs {
		kinds[e.Kind] = true
		if i > 0 && evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("trace out of order at %d: %+v", i, evs)
		}
		if time.Since(e.Time) > time.Minute || time.Since(e.Time) < 0 {
			t.Fatalf("implausible event time: %+v", e)
		}
	}
	for _, want := range []string{"ring-close", "ring-append", "ring-retire", "queue-close"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (have %v)", want, kinds)
		}
	}
	m := q.Metrics()
	if m.RingEvents["ring-append"] == 0 || m.RingEvents["queue-close"] != 1 {
		t.Fatalf("RingEvents = %v", m.RingEvents)
	}
}

func TestDequeueWaitLatencySampled(t *testing.T) {
	q := New(WithLatencySampling(1))
	h := q.NewHandle()
	defer h.Release()
	h.Enqueue(7)
	if v, err := h.DequeueWait(context.Background()); err != nil || v != 7 {
		t.Fatalf("DequeueWait = %d, %v", v, err)
	}
	m := q.Metrics()
	if m.DequeueWait.Samples != 1 {
		t.Fatalf("DequeueWait.Samples = %d, want 1", m.DequeueWait.Samples)
	}
}

func TestTypedTelemetryDelegates(t *testing.T) {
	q := NewTyped[string](WithLatencySampling(1))
	h := q.NewHandle()
	h.Enqueue("hello")
	if v, ok := h.Dequeue(); !ok || v != "hello" {
		t.Fatal("typed round trip failed")
	}
	h.Release() // folds the handle's counters into the aggregate
	m := q.Metrics()
	if m.Stats.Enqueues == 0 {
		t.Fatalf("typed Metrics empty: %+v", m.Stats)
	}
	rec := httptest.NewRecorder()
	q.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "lcrq_enqueues_total") {
		t.Fatal("typed MetricsHandler missing series")
	}
}

func TestPublishExpvar(t *testing.T) {
	q := New(WithLatencySampling(1))
	h := q.NewHandle()
	h.Enqueue(1)
	h.Dequeue()
	h.Release()
	q.PublishExpvar("lcrq-test-queue")
	v := expvar.Get("lcrq-test-queue")
	if v == nil {
		t.Fatal("expvar not registered")
	}
	var m Metrics
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if m.Stats.Enqueues != 1 {
		t.Fatalf("expvar snapshot = %+v", m.Stats)
	}
}

// TestTelemetryOffOverhead guards the "zero fast-path cost" claim: the
// public wrapper with telemetry disabled (one nil check) must not be
// measurably slower than calling the core operation directly, which is the
// exact code the wrapper replaced. Benchmark-based and thus noisy, so it
// runs only when LCRQ_TELEMETRY_BENCH=1 (the telemetry CI job sets it).
func TestTelemetryOffOverhead(t *testing.T) {
	if os.Getenv("LCRQ_TELEMETRY_BENCH") == "" {
		t.Skip("set LCRQ_TELEMETRY_BENCH=1 to run the overhead smoke check")
	}
	q := New(WithRingSize(1 << 12))
	h := q.NewHandle()
	defer h.Release()

	direct := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.q.Enqueue(h.h, uint64(i)|1<<62)
			q.q.Dequeue(h.h)
		}
	}
	wrapped := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Enqueue(uint64(i) | 1<<62)
			h.Dequeue()
		}
	}
	best := func(f func(*testing.B)) float64 {
		ns := 1e18
		for i := 0; i < 5; i++ {
			r := testing.Benchmark(f)
			if v := float64(r.NsPerOp()); v < ns {
				ns = v
			}
		}
		return ns
	}
	d, w := best(direct), best(wrapped)
	t.Logf("direct %.1f ns/op, wrapped (telemetry off) %.1f ns/op (%+.1f%%)",
		d, w, (w/d-1)*100)
	if w > d*1.25 {
		t.Fatalf("telemetry-off wrapper overhead too high: direct %.1f ns/op vs wrapped %.1f ns/op", d, w)
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
