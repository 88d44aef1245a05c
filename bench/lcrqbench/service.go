package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"lcrq"
	"lcrq/internal/resilience"
	"lcrq/internal/resilience/client"
	"lcrq/internal/resilience/server"
)

const (
	// svcBatch is the values per enqueue request and the max per dequeue.
	svcBatch = 16
	// svcPoll is the consumer's long-poll wait.
	svcPoll = 50 * time.Millisecond
	// svcWindow caps the items the producer has outstanding (enqueued, not
	// yet dequeued). Without it a producer faster than the consumer grows
	// the queue for the whole run; with it the depth stays between zero
	// and one ring's worth.
	svcWindow = 4096
)

// serviceOptions is the queue configuration cmd/qserve starts with when
// given no flags.
func serviceOptions() []lcrq.Option {
	return []lcrq.Option{
		lcrq.WithTelemetry(),
		lcrq.WithWatchdog(50 * time.Millisecond),
		lcrq.WithTracing(lcrq.DefaultTraceSampleN),
	}
}

// newServer builds the queue and the server front end as cmd/qserve does
// with its default flags (minus the flight recorder and the listener).
func newServer() (*lcrq.Queue, *server.Server) {
	q := lcrq.New(serviceOptions()...)
	return q, server.New(server.Config{Queue: q, Shed: resilience.ShedConfig{RecoverObservations: 2}})
}

// serviceRig is the service workload's system under test: a queue and its
// server on a loopback listener, and one client per connection.
type serviceRig struct {
	q          *lcrq.Queue
	srv        *server.Server
	ts         *httptest.Server
	prod, cons *client.Client
	transports []*http.Transport
}

func newServiceRig(tr *serviceTracer) *serviceRig {
	r := &serviceRig{}
	r.q, r.srv = newServer()
	h := r.srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	r.ts = httptest.NewServer(h)
	newClient := func(prefix string) *client.Client {
		// One connection per client: each client is a closed loop with one
		// request in flight.
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		r.transports = append(r.transports, tp)
		var rt http.RoundTripper = tp
		if tr != nil {
			rt = tr.transport(tp)
		}
		return client.New(client.Config{BaseURL: r.ts.URL, HTTPClient: &http.Client{Transport: rt}, KeyPrefix: prefix})
	}
	r.prod, r.cons = newClient("p"), newClient("c")
	return r
}

func (r *serviceRig) close() {
	for _, tp := range r.transports {
		tp.CloseIdleConnections()
	}
	r.ts.Close()
	r.srv.Close()
}

// flow holds the producer to svcWindow outstanding items and lets the
// consumer's exit release it.
type flow struct {
	mu          sync.Mutex
	cond        sync.Cond
	outstanding int
	done        bool
}

// wait blocks while the window is full and reports whether the consumer is
// still running.
func (f *flow) wait() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.outstanding+svcBatch > svcWindow && !f.done {
		f.cond.Wait()
	}
	return !f.done
}

func (f *flow) add(n int) {
	f.mu.Lock()
	f.outstanding += n
	f.cond.Signal()
	f.mu.Unlock()
}

func (f *flow) finish() {
	f.mu.Lock()
	f.done = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// serviceStats is what the service workload measures beyond its meters.
type serviceStats struct {
	requests   uint64
	retries    uint64
	polls      uint64
	emptyPolls uint64
	tr         *serviceTracer
}

// runService runs the service workload: a producer sending enqueue batches
// and a consumer long-polling dequeues, each a closed loop on its own
// connection to an in-process server.
func runService(rc runConfig) *outcome {
	wall := clock()
	o := &outcome{durations: map[string]float64{}}
	prodLat, consLat := newReservoir(rc.latCap, rc.seed), newReservoir(rc.latCap, rc.seed+1)

	var tr *serviceTracer
	if rc.trace != traceOff {
		tr = newServiceTracer(rc.spanCap)
		o.logs = append(o.logs, tr.log)
	}
	t0 := clock()
	for k := 0; k < max(1, rc.setups); k++ {
		runtime.GC()
		start := time.Now()
		rig := newServiceRig(nil)
		o.setups = append(o.setups, time.Since(start).Seconds())
		rig.close()
	}
	o.durations["setups"] = float64(clock()-t0) / 1e9

	runtime.GC()
	rig := newServiceRig(tr)

	s := newSchedule(rc.warmup, rc.measure, rc.window, rc.trace)
	o.sched = s
	prod, cons := newMeter(s, prodLat), newMeter(s, consLat)

	var (
		f    flow
		wg   sync.WaitGroup
		sent tally
		seen = newChecker(1)
		st   = &serviceStats{tr: tr}
		ctx  = context.Background()
	)
	f.cond.L = &f.mu
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		batch := make([]uint64, svcBatch)
		var seq uint64
		// The producer runs until the consumer stops, so the consumer's
		// last long-poll never waits on an idle queue.
		for f.wait() {
			for i := range batch {
				batch[i] = tag(0, seq+uint64(i))
			}
			cctx, ct := ctx, (*callTrace)(nil)
			if prod.traced {
				cctx, ct = tr.begin(ctx, "enqueue")
			}
			t0 := clock()
			n, err := rig.prod.Enqueue(cctx, batch, 0)
			t1 := clock()
			if ct != nil {
				tr.finish(ct, t0, t1, t0 >= s.measure && t0 < s.end)
			}
			prod.tick(t0, t1, true)
			prod.calls++
			if err != nil {
				prod.failed++
			}
			for i := 0; i < n; i++ {
				sent.add(seq)
				seq++
			}
			prod.items += uint64(n)
			f.add(n)
		}
	}()
	go func() { // consumer
		defer wg.Done()
		defer f.finish()
		for !cons.stopped {
			cctx, ct := ctx, (*callTrace)(nil)
			if cons.traced {
				cctx, ct = tr.begin(ctx, "dequeue")
			}
			t0 := clock()
			vals, err := rig.cons.Dequeue(cctx, svcBatch, svcPoll)
			t1 := clock()
			if ct != nil {
				tr.finish(ct, t0, t1, t0 >= s.measure && t0 < s.end)
			}
			cons.tick(t0, t1, true)
			cons.calls++
			if err != nil {
				cons.failed++
			}
			st.polls++
			if len(vals) == 0 {
				st.emptyPolls++
			}
			for _, v := range vals {
				seen.see(v)
			}
			cons.items += uint64(len(vals))
			f.add(-len(vals))
		}
	}()
	sleepUntil(s.measure)
	a0 := heapAllocBytes()
	sleepUntil(s.end)
	o.allocBytes = heapAllocBytes() - a0
	wg.Wait()
	o.durations["warmup"] = rc.warmup.Seconds()
	o.durations["measure"] = s.measuredSeconds()

	drain := newChecker(1)
	rig.q.Drain(func(v uint64) { drain.see(v) })
	st.requests = prod.calls + cons.calls
	st.retries = rig.prod.Retries.Load() + rig.cons.Retries.Load()
	rig.close()

	o.meters = []*meter{&prod, &cons}
	o.svc = st
	o.attempted = st.requests
	o.failed = prod.failed + cons.failed
	bad, err := verify([]tally{sent}, seen, drain)
	o.failed += bad
	o.err = err
	o.durations["total"] = float64(clock()-wall) / 1e9
	return o
}
