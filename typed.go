package lcrq

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"lcrq/internal/core"
)

// Typed is an unbounded nonblocking MPMC FIFO queue of arbitrary Go values,
// built on the raw uint64 Queue. Values are parked in a growable slot arena
// that the garbage collector scans normally (so queueing pointers is safe),
// and the raw queue carries slot indices. Each handle keeps a small private
// stash of free slot indices; a second, internal LCRQ, the lock-free free
// list, only balances the stashes, in batches of stashSize/2 or more, when one
// runs dry or overflows. A closed enqueue/dequeue loop therefore never
// touches the free list, and the steady-state data path allocates nothing.
//
// The memory ordering of slot writes is anchored by the queue's atomic
// operations: a slot is written strictly before its index is published via
// Enqueue and read strictly after the index is received from Dequeue. An
// index moves between goroutines only through the main queue or the free
// list; a stash is touched by its own handle alone.
type Typed[T any] struct {
	main *Queue     // carries slot indices in FIFO order
	free *core.LCRQ // recycled slot indices
	mu   sync.Mutex
	arr  atomic.Pointer[[]*chunk[T]]
	pool sync.Pool // spare *TypedHandle[T]
}

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
	// stashSize is the capacity of a handle's stash of free slot indices,
	// and so the most slots a live handle can hold back from other handles.
	stashSize = 64
)

type chunk[T any] struct {
	slots [chunkSize]T
}

// NewTyped returns an empty typed queue. Options configure the underlying
// index queue. The free list takes only its ring size and ring protocol:
// it holds exactly the arena's recycled slot indices, so a capacity bound
// there would lose slots, not apply backpressure, and nothing reads its
// telemetry or traces (WithCapacity and friends govern the main queue).
func NewTyped[T any](opts ...Option) *Typed[T] {
	main := New(opts...)
	cfg := main.q.Config()
	t := &Typed[T]{main: main, free: core.NewLCRQ(core.Config{RingOrder: cfg.RingOrder, Ring: cfg.Ring})}
	empty := []*chunk[T]{}
	t.arr.Store(&empty)
	t.pool.New = func() any {
		h := t.NewHandle()
		// See Queue's pool: dropped pooled handles must not leak their
		// reclamation records, nor the arena slots in their stash.
		runtime.SetFinalizer(h, (*TypedHandle[T]).Release)
		return h
	}
	return t
}

// TypedHandle is the per-goroutine context for a Typed queue. It must not
// be used concurrently.
type TypedHandle[T any] struct {
	t     *Typed[T]
	main  *Handle
	free  *core.Handle
	idx   []uint64          // scratch index block for the batch operations
	n     int               // free slot indices held in stash[:n]
	stash [stashSize]uint64 // most recently freed on top
}

// NewHandle returns a handle bound to t. Release it when the goroutine is
// done with the queue.
func (t *Typed[T]) NewHandle() *TypedHandle[T] {
	return &TypedHandle[T]{t: t, main: t.main.NewHandle(), free: t.free.NewHandle()}
}

// Release returns the handle's resources, handing the slots left in its
// stash back to the free list.
func (h *TypedHandle[T]) Release() {
	if h.n > 0 {
		h.t.free.EnqueueBatch(h.free, h.stash[:h.n])
		h.n = 0
	}
	h.main.Release()
	h.free.Release()
}

func (t *Typed[T]) slot(idx uint64) *T {
	chunks := *t.arr.Load()
	return &chunks[idx>>chunkBits].slots[idx&(chunkSize-1)]
}

// grow appends one chunk to the arena and returns its first slot index. The
// next stashSize/2 indices fill h's stash, which the caller found empty, and
// the rest go to the free list in one batch.
func (t *Typed[T]) grow(h *TypedHandle[T]) uint64 {
	t.mu.Lock()
	old := *t.arr.Load()
	next := make([]*chunk[T], len(old)+1)
	copy(next, old)
	next[len(old)] = &chunk[T]{}
	t.arr.Store(&next)
	base := uint64(len(old)) << chunkBits
	t.mu.Unlock()
	// Lowest index on top, so the chunk is handed out in ascending order.
	for i := range stashSize / 2 {
		h.stash[i] = base + stashSize/2 - uint64(i)
	}
	h.n = stashSize / 2
	rest := make([]uint64, 0, chunkSize-1-stashSize/2)
	for i := uint64(stashSize/2 + 1); i < chunkSize; i++ {
		rest = append(rest, base+i)
	}
	t.free.EnqueueBatch(h.free, rest)
	return base
}

// Enqueue appends v to the queue and reports whether it was accepted: false
// after Close, or when a bounded queue has no budget (TryEnqueue
// distinguishes the two, EnqueueWait blocks for budget).
func (h *TypedHandle[T]) Enqueue(v T) (ok bool) {
	return h.TryEnqueue(v) == nil
}

// TryEnqueue appends v to the queue, reporting exactly why when it cannot:
// ErrClosed after Close, ErrFull when a bounded queue has no budget left.
// It never blocks.
func (h *TypedHandle[T]) TryEnqueue(v T) error {
	idx := h.takeSlot()
	*h.t.slot(idx) = v
	if err := h.main.TryEnqueue(idx); err != nil {
		h.putSlot(idx)
		return err
	}
	return nil
}

// EnqueueWait blocks until a bounded queue accepts v; it fails with
// ErrClosed once the queue is closed, or with ctx.Err() when ctx is done
// first. See Handle.EnqueueWait for the waiting strategy.
func (h *TypedHandle[T]) EnqueueWait(ctx context.Context, v T) error {
	idx := h.takeSlot()
	*h.t.slot(idx) = v
	if err := h.main.EnqueueWait(ctx, idx); err != nil {
		h.putSlot(idx)
		return err
	}
	return nil
}

// takeSlot acquires a free arena slot index from the handle's stash. An
// empty stash is refilled to half with one batch dequeue from the free list,
// and only when the free list is dry too does the arena grow.
//
//lcrq:hotpath
func (h *TypedHandle[T]) takeSlot() uint64 {
	if h.n == 0 {
		h.n = h.t.free.DequeueBatch(h.free, h.stash[:stashSize/2])
		if h.n == 0 {
			return h.t.grow(h)
		}
	}
	h.n--
	return h.stash[h.n]
}

// recycle pushes a cleared slot index onto the handle's stash. A full stash
// first spills its older half to the free list in one batch. The free list
// is a private, never-closed, unbounded queue, so the spill always lands,
// after Close and under capacity pressure alike.
//
//lcrq:hotpath
func (h *TypedHandle[T]) recycle(idx uint64) {
	if h.n == stashSize {
		h.t.free.EnqueueBatch(h.free, h.stash[:stashSize/2])
		h.n = copy(h.stash[:], h.stash[stashSize/2:])
	}
	h.stash[h.n] = idx
	h.n++
}

// putSlot clears a slot whose index never reached the main queue (the
// enqueue was rejected) and recycles the index.
func (h *TypedHandle[T]) putSlot(idx uint64) {
	var zero T
	*h.t.slot(idx) = zero
	h.recycle(idx)
}

// takeSlots fills idx with free slot indices: first from the stash, then,
// when at least half a stash is still missing, with one batch dequeue from
// the free list straight into idx, and only then slot by slot (which may
// grow the arena). Once the arena is big enough, a batch of any length
// costs at most one free-list call per stashSize/2 slots.
//
//lcrq:hotpath
func (h *TypedHandle[T]) takeSlots(idx []uint64) {
	i := 0
	for ; i < len(idx) && h.n > 0; i++ {
		h.n--
		idx[i] = h.stash[h.n]
	}
	if len(idx)-i >= stashSize/2 {
		i += h.t.free.DequeueBatch(h.free, idx[i:])
	}
	for ; i < len(idx); i++ {
		idx[i] = h.takeSlot()
	}
}

// recycleSlots returns cleared slot indices: as many as fit go onto the
// stash, and the rest go to the free list in one batch when they make at
// least half a stash, or one by one through recycle otherwise.
//
//lcrq:hotpath
func (h *TypedHandle[T]) recycleSlots(idx []uint64) {
	k := copy(h.stash[h.n:], idx)
	h.n += k
	if rest := idx[k:]; len(rest) >= stashSize/2 {
		h.t.free.EnqueueBatch(h.free, rest)
	} else {
		for _, ix := range rest {
			h.recycle(ix)
		}
	}
}

// unload takes the value out of a dequeued slot and clears the slot so the
// arena holds no reference to the value.
func (h *TypedHandle[T]) unload(idx uint64) T {
	p := h.t.slot(idx)
	v := *p
	var zero T
	*p = zero
	return v
}

// claim unloads a dequeued slot and recycles its index.
func (h *TypedHandle[T]) claim(idx uint64) T {
	v := h.unload(idx)
	h.recycle(idx)
	return v
}

// scratch returns the handle's reusable index block, sized to k. The handle
// is single-goroutine and the batch operations do not nest, so one buffer
// serves both directions without allocation in the steady state.
func (h *TypedHandle[T]) scratch(k int) []uint64 {
	if cap(h.idx) < k {
		h.idx = make([]uint64, k)
	}
	return h.idx[:k]
}

// EnqueueBatch appends the values of vs in order using the underlying index
// queue's batched enqueue (one fetch-and-add per block of items instead of
// one per item) and returns how many values were accepted, with the same
// error contract as Handle.EnqueueBatch: nil when all of vs landed,
// ErrClosed / ErrFull with n < len(vs) otherwise. Slots come from the
// handle's stash and, for the part of a long batch the stash cannot cover,
// from one batch dequeue on the free list (see takeSlots); slots backing the
// rejected tail are cleared and recycled, so a partial batch leaks nothing.
func (h *TypedHandle[T]) EnqueueBatch(vs []T) (n int, err error) {
	idx := h.scratch(len(vs))
	h.takeSlots(idx)
	for i, v := range vs {
		*h.t.slot(idx[i]) = v
	}
	n, err = h.main.EnqueueBatch(idx)
	if n < len(idx) {
		var zero T
		for _, ix := range idx[n:] {
			*h.t.slot(ix) = zero
		}
		h.recycleSlots(idx[n:])
	}
	return n, err
}

// DequeueBatch removes up to len(out) of the oldest values into out using
// the underlying index queue's batched dequeue and returns how many values
// it wrote; 0 means the queue was observed empty. The freed slot indices go
// back to the stash, a long batch's overflow to the free list in one batch
// (see recycleSlots).
func (h *TypedHandle[T]) DequeueBatch(out []T) int {
	idx := h.scratch(len(out))
	n := h.main.DequeueBatch(idx)
	for i, ix := range idx[:n] {
		out[i] = h.unload(ix)
	}
	h.recycleSlots(idx[:n])
	return n
}

// Dequeue removes and returns the oldest value; ok is false if the queue
// was observed empty.
func (h *TypedHandle[T]) Dequeue() (v T, ok bool) {
	idx, ok := h.main.Dequeue()
	if !ok {
		return v, false
	}
	return h.claim(idx), true
}

// DequeueWait blocks until a value is available; it fails with ErrClosed
// once the queue is closed and drained, or with ctx.Err() when ctx is done
// first. See Handle.DequeueWait for the waiting strategy.
func (h *TypedHandle[T]) DequeueWait(ctx context.Context) (v T, err error) {
	idx, err := h.main.DequeueWait(ctx)
	if err != nil {
		return v, err
	}
	return h.claim(idx), nil
}

// Metrics returns a live telemetry snapshot of the underlying index queue,
// which carries every queued value; see Queue.Metrics. The private free-list
// queue is not included. Requires the queue to be built with WithTelemetry
// for counter and latency series.
func (t *Typed[T]) Metrics() Metrics { return t.main.Metrics() }

// Events returns the ring-lifecycle trace of the underlying index queue;
// see Queue.Events.
func (t *Typed[T]) Events() []Event { return t.main.Events() }

// MetricsHandler serves the underlying index queue's telemetry in
// Prometheus text format; see Queue.MetricsHandler.
func (t *Typed[T]) MetricsHandler() http.Handler { return t.main.MetricsHandler() }

// PublishExpvar publishes the underlying index queue's Metrics under name;
// see Queue.PublishExpvar.
func (t *Typed[T]) PublishExpvar(name string) { t.main.PublishExpvar(name) }

// Close permanently closes the queue to new enqueues; dequeues drain the
// remaining items. Idempotent and safe for concurrent use.
func (t *Typed[T]) Close() { t.main.Close() }

// Closed reports whether Close has been called.
func (t *Typed[T]) Closed() bool { return t.main.Closed() }

// Enqueue appends v using a pooled handle and reports whether it was
// accepted; see Queue.Enqueue for the performance caveat.
func (t *Typed[T]) Enqueue(v T) (ok bool) {
	h := t.pool.Get().(*TypedHandle[T])
	ok = h.Enqueue(v)
	t.pool.Put(h)
	return ok
}

// TryEnqueue appends v using a pooled handle, reporting ErrClosed or
// ErrFull when it cannot; see TypedHandle.TryEnqueue.
func (t *Typed[T]) TryEnqueue(v T) error {
	h := t.pool.Get().(*TypedHandle[T])
	err := h.TryEnqueue(v)
	t.pool.Put(h)
	return err
}

// EnqueueWait blocks until a bounded queue accepts v, using a pooled
// handle; see TypedHandle.EnqueueWait.
func (t *Typed[T]) EnqueueWait(ctx context.Context, v T) error {
	h := t.pool.Get().(*TypedHandle[T])
	err := h.EnqueueWait(ctx, v)
	t.pool.Put(h)
	return err
}

// Dequeue removes and returns the oldest value using a pooled handle.
func (t *Typed[T]) Dequeue() (v T, ok bool) {
	h := t.pool.Get().(*TypedHandle[T])
	v, ok = h.Dequeue()
	t.pool.Put(h)
	return v, ok
}

// EnqueueBatch appends the values of vs using a pooled handle; see
// TypedHandle.EnqueueBatch.
func (t *Typed[T]) EnqueueBatch(vs []T) (n int, err error) {
	h := t.pool.Get().(*TypedHandle[T])
	n, err = h.EnqueueBatch(vs)
	t.pool.Put(h)
	return n, err
}

// DequeueBatch removes up to len(out) values into out using a pooled
// handle; see TypedHandle.DequeueBatch.
func (t *Typed[T]) DequeueBatch(out []T) int {
	h := t.pool.Get().(*TypedHandle[T])
	n := h.DequeueBatch(out)
	t.pool.Put(h)
	return n
}

// Health returns the watchdog verdict of the underlying index queue; see
// Queue.Health.
func (t *Typed[T]) Health() Health { return t.main.Health() }

// ForceTrace arms an item trace with the given identity on this handle's
// next enqueue; see Handle.ForceTrace. The trace follows the value's slot
// index through the underlying queue, so sojourn measures the typed value's
// residency exactly. The private free-list queue is never traced.
func (h *TypedHandle[T]) ForceTrace(id uint64) { h.main.ForceTrace(id) }

// ClearTrace cancels a pending armed trace; see Handle.ClearTrace.
func (h *TypedHandle[T]) ClearTrace() { h.main.ClearTrace() }

// LastEnqueueTrace reports the trace stamped by this handle's most recent
// successful enqueue; see Handle.LastEnqueueTrace.
func (h *TypedHandle[T]) LastEnqueueTrace() (id uint64, ok bool) {
	return h.main.LastEnqueueTrace()
}

// EnqueueTraced appends v with a forced item trace and returns the identity
// it stamped; see Handle.EnqueueTraced.
func (h *TypedHandle[T]) EnqueueTraced(v T) (id uint64, ok bool) {
	id = NewTraceID()
	h.main.ForceTrace(id)
	return id, h.Enqueue(v)
}

// LastDequeueTraces returns the item traces observed by this handle's most
// recent dequeue operation; see Handle.LastDequeueTraces.
func (h *TypedHandle[T]) LastDequeueTraces() []ItemTrace {
	return h.main.LastDequeueTraces()
}

// RecentTraces returns the recent completed item traces of the underlying
// index queue; see Queue.RecentTraces.
func (t *Typed[T]) RecentTraces() []TraceRecord { return t.main.RecentTraces() }

// FindTrace returns the most recent completed trace carrying id; see
// Queue.FindTrace.
func (t *Typed[T]) FindTrace(id uint64) (TraceRecord, bool) { return t.main.FindTrace(id) }

// TraceHandler serves the underlying index queue's item-trace state as
// JSON; see Queue.TraceHandler.
func (t *Typed[T]) TraceHandler() http.Handler { return t.main.TraceHandler() }
