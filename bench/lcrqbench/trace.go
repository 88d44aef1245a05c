package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// span is one call across a layer boundary, recorded from the benchmark's
// side of that boundary. Spans of one request share Req; Parent names the
// span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the most recent spans of one recorder in a fixed ring, so
// a traced run holds a bounded amount of memory however long it lasts.
type spanLog struct {
	buf []span
	n   uint64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

func (l *spanLog) add(s span) {
	l.buf[l.n%uint64(len(l.buf))] = s
	l.n++
}

// spans returns the kept spans, oldest first.
func (l *spanLog) spans() []span {
	if l.n <= uint64(len(l.buf)) {
		return l.buf[:l.n]
	}
	i := l.n % uint64(len(l.buf))
	return append(slices.Clone(l.buf[i:]), l.buf[:i]...)
}

// writeSpans writes the kept spans of every log to path as JSON lines.
func writeSpans(path string, logs ...*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans() {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Headers the tracing transport stamps on each traced attempt, read back by
// the handler middleware to parent its span.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

type callKey struct{}

// callTrace identifies one traced client call; it rides the request
// context down to the tracing transport. Its id is also the request id of
// every span the call causes.
type callTrace struct {
	id uint64
	op string
}

// serviceTracer records the service workload's spans: the client call, each
// HTTP attempt the transport makes for it, and the server handler's share
// of each attempt. It also keeps every measured handler time, round trip and
// transport self time in full, so the per-layer numbers do not depend on
// which spans the bounded log kept.
type serviceTracer struct {
	ids atomic.Uint64

	mu        sync.Mutex
	log       *spanLog
	handlerNs map[uint64]int64 // req → handler time, until the call collects it
	handler   []int64          // per measured call: its handler spans, ns
	rtt       []int64          // per measured call: its duration, ns
	self      []int64          // per measured call: rtt minus handler, ns
}

func newServiceTracer(spanCap int) *serviceTracer {
	return &serviceTracer{log: newSpanLog(spanCap), handlerNs: map[uint64]int64{}}
}

// begin opens a traced client call and returns the context to issue it
// with.
func (t *serviceTracer) begin(ctx context.Context, op string) (context.Context, *callTrace) {
	ct := &callTrace{id: t.ids.Add(1), op: op}
	return context.WithValue(ctx, callKey{}, ct), ct
}

// finish closes a traced client call that ran from t0 to t1, and keeps
// its times if it was in the measured part of the run. The server records
// a handler span before the response leaves it, so a call that reached the
// server finds its handler time here.
func (t *serviceTracer) finish(ct *callTrace, t0, t1 int64, measured bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.log.add(span{ID: ct.id, Req: ct.id, Layer: "client", Op: ct.op, Start: t0, End: t1})
	h, ok := t.handlerNs[ct.id]
	delete(t.handlerNs, ct.id)
	if !measured {
		return
	}
	t.rtt = append(t.rtt, t1-t0)
	if ok {
		t.handler = append(t.handler, h)
		t.self = append(t.self, t1-t0-h)
	}
}

// transport wraps base so that attempts made for a traced call carry their
// span identity to the server and are recorded as client.transport spans.
func (t *serviceTracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		ct, _ := r.Context().Value(callKey{}).(*callTrace)
		if ct == nil {
			return base.RoundTrip(r)
		}
		id := t.ids.Add(1)
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		r.Header.Set(reqHeader, strconv.FormatUint(ct.id, 10))
		t0 := clock()
		resp, err := base.RoundTrip(r)
		t1 := clock()
		t.mu.Lock()
		t.log.add(span{ID: id, Parent: ct.id, Req: ct.id, Layer: "client.transport", Op: ct.op, Start: t0, End: t1})
		t.mu.Unlock()
		return resp, err
	})
}

// middleware wraps the server's handler tree and records, for each traced
// attempt, a server span parented on the attempt's transport span.
func (t *serviceTracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		t0 := clock()
		next.ServeHTTP(w, r)
		t1 := clock()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.log.add(span{ID: t.ids.Add(1), Parent: parent, Req: req, Layer: "server", Op: r.URL.Path, Start: t0, End: t1})
		t.handlerNs[req] += t1 - t0
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// defaultSpansPath is where a traced run of workload writes its spans when
// no -spans path is given.
func defaultSpansPath(workload string) string {
	return filepath.Join(".bench_build", fmt.Sprintf("lcrqbench-spans-%s.jsonl", workload))
}
