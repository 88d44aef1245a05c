package main

import (
	"lcrq"
	"lcrq/internal/core"
	"lcrq/internal/instrument"
)

// libQueue is a queue under test as the library workloads and the ledger
// drive it: each worker takes its own handle, and the queue is closed once
// every handle is released.
type libQueue interface {
	newHandle() libHandle
	close()
}

// libHandle is one worker's entry point into a layer.
type libHandle interface {
	enqueue(v uint64) bool
	dequeue() (uint64, bool)
	release()
}

// counted is implemented by the core-layer handles, whose per-thread
// operation counters the ledger reads. The handle must be quiescent.
type counted interface{ counters() instrument.Counters }

// ringProber is implemented by queues whose ring chain length the burst
// stream samples at each peak.
type ringProber interface{ liveRings() int64 }

// typedFullOptions is the production option set of the typed-full workload.
func typedFullOptions() []lcrq.Option {
	return []lcrq.Option{
		lcrq.WithTelemetry(),
		lcrq.WithLatencySampling(1024),
		lcrq.WithTracing(1024),
		lcrq.WithCapacity(65536),
	}
}

// ---- lcrq.handle: the public Handle ----

type handleQueue struct{ q *lcrq.Queue }

func newHandleQueue(opts ...lcrq.Option) libQueue { return handleQueue{lcrq.New(opts...)} }

func (q handleQueue) newHandle() libHandle { return handleH{q.q.NewHandle()} }
func (q handleQueue) close()               { q.q.Close() }

type handleH struct{ h *lcrq.Handle }

func (h handleH) enqueue(v uint64) bool   { return h.h.Enqueue(v) }
func (h handleH) dequeue() (uint64, bool) { return h.h.Dequeue() }
func (h handleH) release()                { h.h.Release() }

// ---- lcrq.typed: Typed[T] with a 16-byte T ----

// item is the typed workloads' 16-byte element. check is ^tag, so an arena
// slot handed to the wrong dequeuer or torn in transit fails verification.
type item struct{ tag, check uint64 }

type typedQueue struct{ q *lcrq.Typed[item] }

func newTypedQueue(opts ...lcrq.Option) libQueue { return typedQueue{lcrq.NewTyped[item](opts...)} }

func (q typedQueue) newHandle() libHandle { return typedH{q.q.NewHandle()} }
func (q typedQueue) close()               { q.q.Close() }

type typedH struct{ h *lcrq.TypedHandle[item] }

func (h typedH) enqueue(v uint64) bool { return h.h.Enqueue(item{v, ^v}) }

func (h typedH) dequeue() (uint64, bool) {
	it, ok := h.h.Dequeue()
	if ok && it.check != ^it.tag {
		// A value no producer made: the checker counts it as a violation.
		return ^uint64(0), true
	}
	return it.tag, ok
}

func (h typedH) release() { h.h.Release() }

// ---- core.list: core.LCRQ ----

type listQueue struct{ q *core.LCRQ }

func newListQueue(cfg core.Config) libQueue { return listQueue{core.NewLCRQ(cfg)} }

func (q listQueue) newHandle() libHandle { return listH{q.q, q.q.NewHandle()} }
func (q listQueue) close()               {}
func (q listQueue) liveRings() int64     { return q.q.LiveRings() }

type listH struct {
	q *core.LCRQ
	h *core.Handle
}

func (h listH) enqueue(v uint64) bool         { return h.q.Enqueue(h.h, v) }
func (h listH) dequeue() (uint64, bool)       { return h.q.Dequeue(h.h) }
func (h listH) release()                      { h.h.Release() }
func (h listH) counters() instrument.Counters { return h.h.C }

// ---- core.ring: one core.CRQ ring ----

type ringQueue struct{ q *core.CRQ }

func newRingQueue(kind core.RingKind) libQueue {
	return ringQueue{core.NewCRQ(core.Config{Ring: kind})}
}

func (q ringQueue) newHandle() libHandle { return ringH{q.q, core.NewHandle()} }
func (q ringQueue) close()               {}

type ringH struct {
	q *core.CRQ
	h *core.Handle
}

func (h ringH) enqueue(v uint64) bool         { return h.q.Enqueue(h.h, v) }
func (h ringH) dequeue() (uint64, bool)       { return h.q.Dequeue(h.h) }
func (h ringH) release()                      {}
func (h ringH) counters() instrument.Counters { return h.h.C }
