// Package lcrq is a fast, linearizable, nonblocking multi-producer
// multi-consumer FIFO queue for Go, reproducing
//
//	Adam Morrison and Yehuda Afek. Fast Concurrent Queues for x86
//	Processors. PPoPP 2013.
//
// The queue spreads contending threads across the cells of ring segments
// using fetch-and-add — which always succeeds — and synchronizes within a
// cell using a double-width compare-and-swap (LOCK CMPXCHG16B on amd64),
// avoiding the wasted work of CAS retry loops that melts down CAS-based
// queues under contention.
//
// # Usage
//
// Operations go through per-thread handles, which carry hazard-pointer
// records and instrumentation:
//
//	q := lcrq.New()
//	h := q.NewHandle()        // one per goroutine, Release when done
//	h.Enqueue(42)
//	v, ok := h.Dequeue()
//
// Handle-free convenience methods (Queue.Enqueue / Queue.Dequeue) borrow a
// handle from an internal pool; they cost one pool round-trip per call and
// are intended for casual use, not benchmarks.
//
// The raw queue carries uint64 values and reserves one bit pattern
// (lcrq.Reserved) to mark empty cells. Typed[T] wraps the queue with a
// slot-arena so arbitrary Go values — including pointers, which stay
// visible to the garbage collector — can be queued.
package lcrq

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"lcrq/internal/chaos"
	"lcrq/internal/core"
	"lcrq/internal/telemetry"
)

// Reserved is the single uint64 value that cannot be stored in a raw Queue.
// Enqueueing it panics. Use Typed to lift the restriction.
const Reserved = core.Bottom

// ErrClosed is returned by DequeueWait once the queue has been closed and
// fully drained: no value is coming, ever.
var ErrClosed = errors.New("lcrq: queue closed")

// ErrFull is returned by TryEnqueue when a bounded queue (WithCapacity)
// has no item or ring budget left. The value was not enqueued; EnqueueWait
// retries instead of returning it.
var ErrFull = errors.New("lcrq: queue full")

// ErrEmpty reports that the queue held no value. It is never returned on
// its own: DequeueWait wraps it (with the context error) in a WaitError
// when its context ends while the queue is still empty.
var ErrEmpty = errors.New("lcrq: queue empty")

// A WaitError is returned by EnqueueWait and DequeueWait when their context
// ends before the queue lets the operation through. It wraps both the queue
// state that forced the wait (ErrFull for EnqueueWait, ErrEmpty for
// DequeueWait — what the last poll observed) and the context's own error,
// so callers can split the cases with errors.Is:
//
//	errors.Is(err, lcrq.ErrFull) && errors.Is(err, context.DeadlineExceeded)
//	    // the queue stayed full for the whole deadline → backpressure;
//	    // retry later (a server maps this to 429 + Retry-After)
//	errors.Is(err, context.Canceled)
//	    // the caller gave up → not a queue condition at all
//
// Plain errors.Is(err, context.DeadlineExceeded) keeps working as before
// the wrapper existed.
type WaitError struct {
	State error // ErrFull or ErrEmpty: the queue at the last poll
	Cause error // the context error: context.Canceled or context.DeadlineExceeded
}

func (e *WaitError) Error() string { return e.State.Error() + ": " + e.Cause.Error() }

// Unwrap exposes both the queue-state sentinel and the context error to
// errors.Is / errors.As.
func (e *WaitError) Unwrap() []error { return []error{e.State, e.Cause} }

// Queue is a nonblocking MPMC FIFO queue of uint64 values, unbounded by
// default and bounded with WithCapacity. All methods are safe for
// concurrent use.
type Queue struct {
	q    *core.LCRQ
	tel  *telemetry.Sink // nil unless WithTelemetry / WithLatencySampling
	wd   *watchdog       // nil unless WithWatchdog
	pool sync.Pool       // spare *Handle for the convenience methods
}

// New returns an empty queue. With no options the queue uses rings of
// 2^12 cells, cache-remapped cells (consecutive indices on different cache
// lines), hardware fetch-and-add, and hazard-pointer ring recycling.
func New(opts ...Option) *Queue {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	q := &Queue{}
	if cfg.Telemetry {
		n := cfg.LatencySampleN
		if n == 0 {
			n = core.DefaultLatencySampleN
		}
		q.tel = telemetry.New(n, 0)
		cfg.Tap = q.tel
		if cfg.TraceSampleN != 0 {
			// The sink aggregates sampled item sojourns (histogram + recent
			// traces) exactly as it does latency and lifecycle events.
			cfg.TraceTap = q.tel
		}
	}
	q.q = core.NewLCRQ(cfg)
	q.pool.New = func() any {
		h := q.NewHandle()
		// Pooled handles have no owner to Release them; if the pool drops
		// one under GC pressure, the finalizer returns its reclamation
		// record to the queue's domain instead of leaking it.
		runtime.SetFinalizer(h, (*Handle).Release)
		return h
	}
	if wd := q.q.Config().Watchdog; wd > 0 {
		q.wd = startWatchdog(q, wd)
	}
	return q
}

// Handle is a per-goroutine operation context. A Handle must not be used
// concurrently; create one per worker and Release it when the worker exits.
type Handle struct {
	h   *core.Handle
	q   *Queue
	tel *telemetry.Rec // nil unless the queue has telemetry enabled
}

// NewHandle returns a handle bound to q.
func (q *Queue) NewHandle() *Handle {
	h := &Handle{h: q.q.NewHandle(), q: q}
	if q.tel != nil {
		h.tel = q.tel.Register(&h.h.C)
	}
	return h
}

// SetCluster records the hardware cluster (processor package) the owning
// thread runs on, which the hierarchical variant (WithHierarchical) uses to
// batch operations by cluster. Harmless to leave at 0 otherwise.
func (h *Handle) SetCluster(cluster int) { h.h.Cluster = int64(cluster) }

// Enqueue appends v to the queue and reports whether it was accepted: ok is
// false once the queue has been closed, or — on a bounded queue — when the
// item or ring budget is exhausted (use TryEnqueue to distinguish the two,
// or EnqueueWait to block for budget). v must not equal Reserved.
//
// Without telemetry the only addition over the core operation is the nil
// check on h.tel — the same "dead branch on the fast path" shape as the
// chaos layer's no-ops — so a telemetry-free queue pays nothing for the
// feature's existence (BenchmarkEnqueueDequeue quantifies this).
func (h *Handle) Enqueue(v uint64) (ok bool) {
	if h.tel == nil {
		return h.q.q.Enqueue(h.h, v)
	}
	return h.enqueueTel(v)
}

// TryEnqueue appends v to the queue, reporting exactly why when it cannot:
// ErrClosed after Close, ErrFull when a bounded queue has no budget left.
// It never blocks. v must not equal Reserved.
func (h *Handle) TryEnqueue(v uint64) error {
	switch h.enqueueStatus(v) {
	case core.EnqOK:
		return nil
	case core.EnqFull:
		return ErrFull
	default:
		return ErrClosed
	}
}

// enqueueStatus is one bounded-aware enqueue attempt, with the same
// telemetry treatment as Enqueue (rejected attempts feed the enqueue
// latency series like empty polls feed the dequeue one).
func (h *Handle) enqueueStatus(v uint64) core.EnqStatus {
	r := h.tel
	if r == nil {
		return h.q.q.EnqueueStatus(h.h, v)
	}
	if r.Arm() {
		t0 := time.Now()
		st := h.q.q.EnqueueStatus(h.h, v)
		r.Lat(telemetry.KindEnqueue, time.Since(t0))
		r.Tick()
		return st
	}
	st := h.q.q.EnqueueStatus(h.h, v)
	r.Tick()
	return st
}

// EnqueueWait blocks until a bounded queue accepts v. It fails with
// ErrClosed once the queue has been closed, or with a *WaitError wrapping
// ErrFull and ctx.Err() when ctx is done first (errors.Is matches both, so
// "full for the whole deadline" and caller cancellation stay
// distinguishable); on error v was not enqueued. A nil ctx waits without
// cancellation. On an unbounded queue it is equivalent to Enqueue and never
// blocks.
//
// Waiting mirrors DequeueWait: a brief spin, then bounded exponential
// backoff sleeps (WithWaitBackoff), so a blocked producer costs no CPU
// while the queue stays full but reacts quickly when a consumer frees
// budget. Fairness among blocked producers is not guaranteed — whichever
// waiter polls first after budget frees wins, as with any nonblocking
// queue's CAS races.
func (h *Handle) EnqueueWait(ctx context.Context, v uint64) error {
	if r := h.tel; r != nil && r.Arm() {
		// The enqueue-wait series times the whole wait, sleeps included —
		// producer backpressure stall, not queue-operation cost.
		t0 := time.Now()
		err := h.enqueueWait(ctx, v)
		if err == nil {
			r.Lat(telemetry.KindEnqueueWait, time.Since(t0))
		}
		r.Tick()
		return err
	}
	return h.enqueueWait(ctx, v)
}

func (h *Handle) enqueueWait(ctx context.Context, v uint64) error {
	w := h.newWaiter(ctx)
	for {
		switch h.enqueueStatus(v) {
		case core.EnqOK:
			return nil
		case core.EnqClosed:
			return ErrClosed
		}
		chaos.Delay(chaos.EnqWait)
		if !w.pause() {
			return &WaitError{State: ErrFull, Cause: ctx.Err()}
		}
	}
}

// waiter paces the polls of EnqueueWait and DequeueWait: a few scheduler
// yields, then sleeps that start at WaitBackoffMin and double up to
// WaitBackoffMax.
type waiter struct {
	h       *core.Handle
	done    <-chan struct{} // nil: wait without cancellation
	spin    int
	backoff time.Duration
	ceil    time.Duration
}

func (h *Handle) newWaiter(ctx context.Context) waiter {
	cfg := h.q.q.Config()
	w := waiter{h: h.h, backoff: cfg.WaitBackoffMin, ceil: cfg.WaitBackoffMax}
	if ctx != nil {
		w.done = ctx.Done()
	}
	return w
}

// pause waits out one round between polls. It reports false, without
// waiting, if the context is already done, and false if it finishes while
// the caller sleeps.
func (w *waiter) pause() bool {
	select {
	case <-w.done:
		return false
	default:
	}
	if w.spin < 8 {
		w.spin++
		runtime.Gosched()
		return true
	}
	// Jittered sleep: waiters parked by the same full or empty episode
	// wake dispersed over [backoff/2, 3·backoff/2] instead of stampeding
	// the queue together.
	timer := time.NewTimer(w.h.Jitter(w.backoff))
	select {
	case <-w.done:
		timer.Stop()
		return false
	case <-timer.C:
	}
	w.backoff = min(2*w.backoff, w.ceil)
	return true
}

// enqueueTel is the telemetry-enabled enqueue: it times the operation when
// the 1-in-N sampler arms and paces the handle's counter publication.
func (h *Handle) enqueueTel(v uint64) bool {
	r := h.tel
	if r.Arm() {
		t0 := time.Now()
		ok := h.q.q.Enqueue(h.h, v)
		r.Lat(telemetry.KindEnqueue, time.Since(t0))
		r.Tick()
		return ok
	}
	ok := h.q.q.Enqueue(h.h, v)
	r.Tick()
	return ok
}

// Dequeue removes and returns the oldest value; ok is false if the queue
// was observed empty.
func (h *Handle) Dequeue() (v uint64, ok bool) {
	if h.tel == nil {
		return h.q.q.Dequeue(h.h)
	}
	return h.dequeueTel()
}

// dequeueTel mirrors enqueueTel for the dequeue side.
func (h *Handle) dequeueTel() (uint64, bool) {
	r := h.tel
	if r.Arm() {
		t0 := time.Now()
		v, ok := h.q.q.Dequeue(h.h)
		r.Lat(telemetry.KindDequeue, time.Since(t0))
		r.Tick()
		return v, ok
	}
	v, ok := h.q.q.Dequeue(h.h)
	r.Tick()
	return v, ok
}

// EnqueueBatch appends the values of vs in order, reserving a block of
// consecutive ring cells with a single fetch-and-add instead of one per
// item, and returns how many values were accepted. The n accepted values
// linearize as n consecutive single enqueues by this handle; concurrent
// dequeuers observe them in vs order. On an unbounded, open queue the whole
// slice is always accepted (n == len(vs), err == nil). Otherwise n < len(vs)
// with ErrClosed once the queue has been closed, or ErrFull when a bounded
// queue's budget ran out — the first n values are in the queue either way,
// and vs[n:] was not enqueued. No value may equal Reserved.
func (h *Handle) EnqueueBatch(vs []uint64) (n int, err error) {
	n, st := h.q.q.EnqueueBatch(h.h, vs)
	if r := h.tel; r != nil {
		r.Batch(telemetry.BatchEnqueue, n)
		r.Tick()
	}
	switch {
	case n == len(vs):
		return n, nil
	case st == core.EnqClosed:
		return n, ErrClosed
	default:
		return n, ErrFull
	}
}

// DequeueBatch removes up to len(out) of the oldest values into out,
// reserving a block of consecutive ring cells with a single fetch-and-add
// instead of one per item, and returns how many values it wrote. The n
// values linearize as n consecutive single dequeues by this handle. A
// return of 0 means the queue was observed empty (out is untouched).
func (h *Handle) DequeueBatch(out []uint64) int {
	n := h.q.q.DequeueBatch(h.h, out)
	if r := h.tel; r != nil {
		r.Batch(telemetry.BatchDequeue, n)
		r.Tick()
	}
	return n
}

// DequeueWait blocks until a value is available and returns it. It fails
// with ErrClosed once the queue has been closed and drained, or with a
// *WaitError wrapping ErrEmpty and ctx.Err() when ctx is done first
// (errors.Is matches both); the returned value is meaningless on error. A
// nil ctx waits without cancellation.
//
// Waiting is a spin phase followed by bounded exponential backoff sleeps
// (see WithWaitBackoff), so an idle waiter costs no CPU while a busy queue
// is polled at full speed. Enqueues concurrent with Close may linearize on
// either side of it: a waiter that has already returned ErrClosed does not
// see items deposited by such stragglers (a later Dequeue or Drain does).
func (h *Handle) DequeueWait(ctx context.Context) (uint64, error) {
	if r := h.tel; r != nil && r.Arm() {
		// The dequeue-wait series times the whole wait, sleeps included —
		// it measures consumer stall, not queue-operation cost. The empty
		// polls inside still feed the dequeue series as ordinary dequeues.
		t0 := time.Now()
		v, err := h.dequeueWait(ctx)
		if err == nil {
			r.Lat(telemetry.KindDequeueWait, time.Since(t0))
		}
		r.Tick()
		return v, err
	}
	return h.dequeueWait(ctx)
}

func (h *Handle) dequeueWait(ctx context.Context) (uint64, error) {
	w := h.newWaiter(ctx)
	for {
		// Read the closed flag before polling: observing (closed, then
		// empty) in that order proves the queue was drained, because no
		// enqueue that starts after Close can succeed.
		closed := h.q.q.Closed()
		if v, ok := h.Dequeue(); ok {
			return v, nil
		}
		if closed {
			return 0, ErrClosed
		}
		if !w.pause() {
			return 0, &WaitError{State: ErrEmpty, Cause: ctx.Err()}
		}
	}
}

// Stats returns a snapshot of the operation statistics accumulated by this
// handle. Meaningful only while the owning goroutine is not mid-operation.
func (h *Handle) Stats() Stats { return h.h.C }

// Release returns the handle's resources (its hazard-pointer record) to the
// queue. The handle must not be used afterwards. With telemetry enabled the
// handle's final counter values are folded into the queue's retired totals,
// so released workers keep contributing to Metrics.
func (h *Handle) Release() {
	if h.tel != nil {
		h.q.tel.Unregister(h.tel)
		h.tel = nil
	}
	h.h.Release()
}

// Enqueue appends v using a pooled handle and reports whether it was
// accepted (false only after Close). v must not equal Reserved.
func (q *Queue) Enqueue(v uint64) (ok bool) {
	h := q.pool.Get().(*Handle)
	ok = h.Enqueue(v)
	q.pool.Put(h)
	return ok
}

// TryEnqueue appends v using a pooled handle, reporting ErrClosed or
// ErrFull when it cannot; see Handle.TryEnqueue.
func (q *Queue) TryEnqueue(v uint64) error {
	h := q.pool.Get().(*Handle)
	err := h.TryEnqueue(v)
	q.pool.Put(h)
	return err
}

// EnqueueWait blocks until a bounded queue accepts v, using a pooled
// handle; see Handle.EnqueueWait.
func (q *Queue) EnqueueWait(ctx context.Context, v uint64) error {
	h := q.pool.Get().(*Handle)
	err := h.EnqueueWait(ctx, v)
	q.pool.Put(h)
	return err
}

// Dequeue removes and returns the oldest value using a pooled handle.
func (q *Queue) Dequeue() (v uint64, ok bool) {
	h := q.pool.Get().(*Handle)
	v, ok = h.Dequeue()
	q.pool.Put(h)
	return v, ok
}

// DequeueWait blocks until a value is available, using a pooled handle; see
// Handle.DequeueWait. Note the pooled handle is held for the whole wait, so
// many concurrently blocked waiters grow the pool; dedicated consumers
// should own a Handle.
func (q *Queue) DequeueWait(ctx context.Context) (uint64, error) {
	h := q.pool.Get().(*Handle)
	v, err := h.DequeueWait(ctx)
	q.pool.Put(h)
	return v, err
}

// EnqueueBatch appends the values of vs using a pooled handle; see
// Handle.EnqueueBatch.
func (q *Queue) EnqueueBatch(vs []uint64) (n int, err error) {
	h := q.pool.Get().(*Handle)
	n, err = h.EnqueueBatch(vs)
	q.pool.Put(h)
	return n, err
}

// DequeueBatch removes up to len(out) values into out using a pooled
// handle; see Handle.DequeueBatch.
func (q *Queue) DequeueBatch(out []uint64) int {
	h := q.pool.Get().(*Handle)
	n := h.DequeueBatch(out)
	q.pool.Put(h)
	return n
}

// Close permanently closes the queue to new enqueues: Enqueue calls that
// begin after Close returns report false, while dequeues keep draining the
// items already queued and report empty once they are gone. Operations
// concurrent with Close may linearize on either side of it. Close is
// idempotent and safe to call concurrently with all other operations.
func (q *Queue) Close() {
	if q.wd != nil {
		q.wd.stop()
	}
	h := q.pool.Get().(*Handle)
	q.q.Close(h.h)
	q.pool.Put(h)
}

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool { return q.q.Closed() }

// Drain repeatedly dequeues until the queue reports empty, invoking fn for
// each value, and returns the number of values drained. Concurrent
// enqueuers may keep it busy indefinitely; Drain is meant for shutdown
// paths — typically after Close, or once producers have stopped.
func (q *Queue) Drain(fn func(uint64)) int {
	h := q.pool.Get().(*Handle)
	defer q.pool.Put(h)
	n := 0
	for {
		v, ok := h.Dequeue()
		if !ok {
			return n
		}
		if fn != nil {
			fn(v)
		}
		n++
	}
}
