package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"lcrq"
	"lcrq/internal/resilience"
)

// TestBodyLimit: a request body at the cap is served; one byte over it is
// refused with 400 bad-request before it is decoded, on both endpoints.
func TestBodyLimit(t *testing.T) {
	ts, s, q := newTestServer(t, Config{MaxBatch: 4})
	limit := int(bodyLimit(4))
	for _, c := range []struct{ path, head string }{
		{"/v1/enqueue", `{"values":[7]`},
		{"/v1/dequeue", `{"max":1`},
	} {
		for _, size := range []int{limit, limit + 1} {
			// Pad inside the object: whitespace is valid JSON, so only the
			// size decides.
			body := c.head + strings.Repeat(" ", size-len(c.head)-1) + "}"
			bad := s.Counters().BadRequests.Load()
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if size == limit {
				if resp.StatusCode != 200 {
					t.Fatalf("%s with a %d-byte body (the cap) = %d %s, want 200", c.path, size, resp.StatusCode, data)
				}
				continue
			}
			var e resilience.ErrorResponse
			if resp.StatusCode != 400 || json.Unmarshal(data, &e) != nil || e.Error != resilience.ErrTokenBadRequest {
				t.Fatalf("%s with a %d-byte body (cap %d) = %d %s, want 400 bad-request", c.path, size, limit, resp.StatusCode, data)
			}
			if got := s.Counters().BadRequests.Load(); got != bad+1 {
				t.Fatalf("%s oversize body: BadRequests %d -> %d, want +1", c.path, bad, got)
			}
		}
	}
	// The enqueue at the cap landed and the dequeue at the cap took it; the
	// oversize enqueue did not.
	if in, out := s.Counters().ItemsAccepted.Load(), s.Counters().ItemsDelivered.Load(); in != 1 || out != 1 || q.Metrics().Depth != 0 {
		t.Fatalf("%d items accepted, %d delivered, depth %d; want 1, 1, 0", in, out, q.Metrics().Depth)
	}
}

// TestDrainCutsParkedEnqueue: an enqueue waiting on a full bounded queue
// with a 30s timeout gets 503 draining as soon as Drain begins, and Drain
// returns long before that timeout.
func TestDrainCutsParkedEnqueue(t *testing.T) {
	ts, s, _ := newTestServer(t, Config{}, lcrq.WithCapacity(1))
	if n, _, _ := enqueue(t, ts.URL, resilience.EnqueueRequest{Values: []uint64{1}}); n != 1 {
		t.Fatalf("fill accepted %d, want 1", n)
	}
	type answer struct {
		status int
		body   []byte
	}
	parked := make(chan answer, 1)
	go func() {
		body, _ := json.Marshal(resilience.EnqueueRequest{Values: []uint64{2}, TimeoutMs: 30000})
		resp, err := http.Post(ts.URL+"/v1/enqueue", "application/json", bytes.NewReader(body))
		if err != nil {
			parked <- answer{body: []byte(err.Error())}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		parked <- answer{resp.StatusCode, data}
	}()
	waitForFrame(t, "lcrq.(*Handle).enqueueWait")

	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case a := <-parked:
		var e resilience.ErrorResponse
		if a.status != 503 || json.Unmarshal(a.body, &e) != nil || e.Error != resilience.ErrTokenDraining {
			t.Fatalf("parked enqueue = %d %s, want 503 draining", a.status, a.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked enqueue still waiting 10s after Drain began")
	}
	// The settle barrier is passed; the drain now waits for the queue to
	// empty, so take the one accepted item.
	if vs, resp := dequeue(t, ts.URL, resilience.DequeueRequest{Max: 1}); resp.StatusCode != 200 || len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("dequeue during drain = %v, status %d", vs, resp.StatusCode)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain still running 10s after it began")
	}
	t.Logf("drain took %v against the parked enqueue's 30s timeout", time.Since(start))
}

// waitForFrame waits until some goroutine's stack holds the function fn.
func waitForFrame(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fn+"(")) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s within 10s", fn)
}

// TestWireBodies: the hot answers the server writes with the wire codec
// are the bytes a json.Encoder writes for the values they carry.
func TestWireBodies(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{}, lcrq.WithForcedTracingOnly())
	for _, c := range []struct {
		path string
		req  any
		resp any
	}{
		{"/v1/enqueue", resilience.EnqueueRequest{Values: []uint64{1, 2, 3}, TraceID: "0x2a", IdempotencyKey: "k<&>"}, new(resilience.EnqueueResponse)},
		{"/v1/enqueue", resilience.EnqueueRequest{Values: []uint64{1, 2, 3}, TraceID: "0x2a", IdempotencyKey: "k<&>"}, new(resilience.EnqueueResponse)}, // replayed
		{"/v1/dequeue", resilience.DequeueRequest{Max: 4}, new(resilience.DequeueResponse)},
		{"/v1/dequeue", resilience.DequeueRequest{Max: 4}, new(resilience.DequeueResponse)}, // empty
	} {
		resp, data := postJSON(t, ts.URL+c.path, c.req)
		if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s = %d %q %s", c.path, resp.StatusCode, resp.Header.Get("Content-Type"), data)
		}
		if err := json.Unmarshal(data, c.resp); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want.Bytes()) {
			t.Fatalf("%s answered %q; encoding/json writes %q", c.path, data, want.Bytes())
		}
	}
}

// TestHandlerAllocs pins the hot handlers' allocations per request with
// warm pools: only http.MaxBytesReader's wrapper is left. (Before the wire
// codec, an enqueue of 16 values cost 23 allocations and a dequeue 11.)
func TestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	q := lcrq.New(lcrq.WithTelemetry(), lcrq.WithTracing(lcrq.DefaultTraceSampleN))
	s := New(Config{Queue: q})
	defer s.Close()
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	body := &reusableBody{}
	serve := func(r *http.Request, b []byte) {
		body.Reset(b)
		r.Body = body
		clear(w.h)
		h.ServeHTTP(w, r)
	}
	enq, enqBody := httptest.NewRequest(http.MethodPost, "/v1/enqueue", nil), []byte(`{"values":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`)
	deq, deqBody := httptest.NewRequest(http.MethodPost, "/v1/dequeue", nil), []byte(`{"max":16}`)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"enqueue", func() { serve(enq, enqBody) }},
		{"dequeue", func() { serve(deq, deqBody) }},
	} {
		if got := testing.AllocsPerRun(1000, c.f); got > 1 {
			t.Errorf("%s handler: %v allocations per request, want at most 1", c.name, got)
		}
		if w.status != 200 {
			t.Fatalf("%s handler answered %d", c.name, w.status)
		}
	}
}

// reusableBody is a request body that can be refilled without allocating.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
