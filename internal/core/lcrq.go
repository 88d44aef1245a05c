package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcrq/internal/chaos"
	"lcrq/internal/contention"
	"lcrq/internal/hazard"
	"lcrq/internal/pad"
)

// LCRQ is the unbounded nonblocking FIFO queue of Figure 5: a Michael-Scott
// style linked list whose nodes are CRQs. Dequeuers work in the head CRQ
// and enqueuers in the tail CRQ; an enqueuer that finds the tail CRQ closed
// appends a new CRQ seeded with its item.
//
// All operations require a *Handle obtained from NewHandle; a handle is
// single-threaded state (hazard pointers, counters, cluster identity).
//
// The padcheck analyzer verifies the layout: head, tail, and the bounded-
// mode items account are written on the operation path and own private
// false-sharing ranges; the remaining atomics are slow-path gauges,
// annotated //lcrq:cold, which may share lines with each other.
//
//lcrq:padded
//lcrq:publish
type LCRQ struct {
	head atomic.Pointer[CRQ]
	_    pad.Line
	tail atomic.Pointer[CRQ]
	_    pad.Line

	// items is the item account of a bounded queue (cfg.Capacity > 0):
	// accepted, not-yet-dequeued values plus in-flight reservations (see
	// Items). One atomic add per enqueue AND per
	// dequeue, by every thread — as hot as head and tail, so it gets the
	// same private false-sharing range (found by padcheck: it previously
	// shared a cache line with the slow-path gauges below, so every
	// bounded-mode operation invalidated the line telemetry scrapes read).
	items atomic.Int64
	_     pad.Line

	cfg Config
	// traced caches cfg.TraceSampleN != 0 so the operation paths gate the
	// per-op trace bookkeeping on one read-only bool. Set once in NewLCRQ.
	traced bool
	// bounded caches cfg.Bounded() for the same reason: even inlined, a
	// value-receiver call on the ~200-byte Config copies it, and every
	// dequeue and successful enqueue asks. Set once in NewLCRQ.
	bounded bool
	dom     *hazard.Domain[CRQ] // nil when cfg.NoHazard
	pool    sync.Pool           // recycled *CRQ rings (unused when NoRecycle)

	// shared is the queue-wide half of the adaptive contention controller
	// (nil unless cfg.AdaptiveContention): the watchdog's remediation boost,
	// read by every handle's StarveLimit. The pointer itself is read-only
	// after NewLCRQ; the Shared struct keeps its hot word on a private line.
	shared *contention.Shared

	// closed is set by Close. It lives off the hot cache lines: enqueuers
	// only consult it on the ring-closed slow path, so an open queue never
	// pays for the close feature.
	closed atomic.Bool //lcrq:cold

	// Telemetry gauges, touched only on the append/retire/recycle slow
	// paths (never per operation): rings counts the segments currently
	// linked in the list; recPuts/recGets count recycler round-trips, whose
	// difference approximates the pool's population (the GC may drain
	// sync.Pool entries, so it is an upper bound).
	rings   atomic.Int64  //lcrq:cold
	recPuts atomic.Uint64 //lcrq:cold
	recGets atomic.Uint64 //lcrq:cold

	// Bounded-mode rejection accounting: rejects counts capacity
	// rejections; full tracks whether the queue is in a "full episode" so
	// the Tap sees one EvCapacityReject per episode rather than one per
	// rejected poll. Both are written only on the rejection slow path.
	rejects atomic.Uint64 //lcrq:cold
	full    atomic.Bool   //lcrq:cold

	// orphans counts handles recovered by the leak finalizer (see
	// recoveryGuard).
	orphans atomic.Uint64 //lcrq:cold
}

// NewLCRQ returns an empty queue configured by cfg.
func NewLCRQ(cfg Config) *LCRQ {
	cfg = cfg.normalized()
	q := &LCRQ{cfg: cfg, traced: cfg.TraceSampleN != 0, bounded: cfg.Bounded()}
	if cfg.AdaptiveContention {
		q.shared = contention.NewShared(cfg.AdaptBoostMax)
	}
	if !cfg.NoHazard {
		q.dom = hazard.New[CRQ](hpSlots)
	}
	first := NewCRQ(cfg)
	q.head.Store(first)
	q.tail.Store(first)
	q.rings.Store(1)
	return q
}

// tap delivers a ring-lifecycle event to the configured Tap, if any. All
// call sites are slow paths.
func (q *LCRQ) tap(ev RingEvent) {
	if q.cfg.Tap != nil {
		q.cfg.Tap.RingEvent(ev)
	}
}

// Config returns the queue's normalized configuration.
func (q *LCRQ) Config() Config { return q.cfg }

// NewHandle returns a per-thread handle bound to this queue. The caller
// must Release it when the thread stops using the queue; a handle that is
// leaked instead (its goroutine exits without Release) has its hazard
// record recovered by a finalizer, so the two rings its slots hold are not
// kept from the recycler forever (see recoveryGuard).
func (q *LCRQ) NewHandle() *Handle {
	h := &Handle{owner: q}
	h.initTrace(q.cfg)
	h.initContention(q)
	if q.dom != nil { // GC mode has no reclamation record, so nothing to leak
		h.hp = q.dom.Acquire()
		h.armRecovery(q)
	}
	return h
}

// protect pins the CRQ currently referenced by src. In GC mode the garbage
// collector protects everything reachable, so a plain load suffices; hazard
// mode needs the publish-and-revalidate dance.
//
// Hazard slots are never cleared between operations: the slot keeps the
// ring published until the handle's next protect of that slot (a
// load-compare while the ring is unchanged) or its Release. A handle so
// holds at most two rings (hpHead, hpTail) back from recycling while idle —
// the same bound as a handle paused mid-operation.
//
// A handle without a record on a hazard-mode queue is a detached
// core.NewHandle() being misused: its operations would silently run
// unprotected, letting rings be recycled under it. That is a
// use-after-recycle waiting to corrupt the queue, so it fails fast here —
// the check costs nothing in the default hazard mode (the h.hp == nil
// branch is not taken) and one flag test in GC mode.
func (q *LCRQ) protect(h *Handle, slot int, src *atomic.Pointer[CRQ]) *CRQ {
	if h.hp == nil {
		if !q.cfg.NoHazard {
			panic("core: detached NewHandle() used with a hazard-mode LCRQ; obtain handles from (*LCRQ).NewHandle")
		}
		return src.Load()
	}
	return h.hp.ProtectPtr(slot, src)
}

// newRing produces a CRQ seeded with v, recycling a retired ring when
// possible. recycled reports which source served the request, so the caller
// can attribute the ring once it is actually published.
func (q *LCRQ) newRing(h *Handle, v uint64) (r *CRQ, recycled bool) {
	if !q.cfg.NoRecycle {
		if r, ok := q.pool.Get().(*CRQ); ok && r != nil {
			q.recGets.Add(1)
			r.reset()
			r.seed(v)
			if h.traceArmed && r.stamps != nil {
				r.stampTrace(h, 0) // the seeded value sits at index 0
			}
			h.C.Recycled++
			return r, true
		}
	}
	r = NewCRQ(q.cfg)
	r.seed(v)
	if h.traceArmed && r.stamps != nil {
		r.stampTrace(h, 0)
	}
	return r, false
}

// releaseRing returns a ring that was never published (a lost append race)
// straight to the pool.
func (q *LCRQ) releaseRing(r *CRQ) {
	if q.cfg.NoRecycle {
		return
	}
	q.recPuts.Add(1)
	q.pool.Put(r)
}

// retireRing schedules an unlinked ring for reuse once the reclamation
// scheme proves no thread can still access it. In GC mode the garbage
// collector is the reclaimer and there is nothing to do.
func (q *LCRQ) retireRing(h *Handle, r *CRQ) {
	q.rings.Add(-1)
	// Unlinking a ring frees ring budget: on a ring-bounded queue that ends
	// a full episode just as a dequeue's freed item budget does (see
	// releaseItems), so the next rejection taps EvCapacityReject again.
	if q.cfg.MaxRings > 0 && q.full.Load() {
		q.full.Store(false)
	}
	q.tap(EvRingRetire)
	var reclaim func(*CRQ)
	if !q.cfg.NoRecycle {
		reclaim = func(old *CRQ) {
			q.recPuts.Add(1)
			q.pool.Put(old)
		}
	}
	if h.hp != nil {
		h.hp.Retire(r, reclaim)
	}
}

// LiveRings returns the number of ring segments currently linked in the
// queue's list (a just-retired ring is counted out as soon as it is
// unlinked, before reclamation completes).
func (q *LCRQ) LiveRings() int64 { return q.rings.Load() }

// RecyclerSize returns an approximation of the recycler pool's population:
// puts minus successful gets. The garbage collector may drain pooled rings
// at any time, so the true population is at most this value.
func (q *LCRQ) RecyclerSize() int64 {
	n := int64(q.recPuts.Load()) - int64(q.recGets.Load())
	if n < 0 {
		n = 0
	}
	return n
}

// depthWalkLimit bounds the Depth chain walk. Under hazard-pointer
// reclamation only the head ring is protected, so a concurrent recycle can
// splice a walked ring elsewhere; the bound keeps the (approximate) walk
// from chasing such a transient cycle.
const depthWalkLimit = 1024

// Depth returns an approximation of the number of queued items — the sum of
// the per-ring tail−head index deltas, each clamped to the ring capacity —
// together with the number of rings visited. The value is exact only when
// the queue is quiescent: concurrent operations move the indices while the
// walk reads them, and rings past the protected head may be recycled
// mid-walk. Cost is one atomic load pair per ring; nothing on the op path.
func (q *LCRQ) Depth(h *Handle) (depth int64, rings int) {
	crq := q.protect(h, hpHead, &q.head)
	for crq != nil && rings < depthWalkLimit {
		t := crq.tail.Load() &^ closedBit
		hd := crq.head.Load()
		if t > hd {
			d := int64(t - hd)
			if d > int64(crq.size) {
				d = int64(crq.size)
			}
			depth += d
		}
		rings++
		crq = crq.next.Load()
	}
	return depth, rings
}

// EnqStatus is the outcome of a bounded-aware enqueue attempt.
type EnqStatus uint8

const (
	// EnqOK: the value was appended.
	EnqOK EnqStatus = iota
	// EnqFull: a bounded queue rejected the value for lack of item or ring
	// budget. The value was not enqueued; the caller may retry (the public
	// EnqueueWait does, with bounded backoff).
	EnqFull
	// EnqClosed: the queue has been closed to new enqueues.
	EnqClosed
)

// Enqueue appends v to the queue and reports whether it was accepted. On an
// unbounded queue it returns false only after Close; on a bounded queue a
// capacity rejection also reports false (use EnqueueStatus to distinguish).
// v must not be Bottom (use the public typed facade for unrestricted
// values).
func (q *LCRQ) Enqueue(h *Handle, v uint64) bool {
	return q.EnqueueStatus(h, v) == EnqOK
}

// EnqueueStatus appends v to the queue, reporting exactly why when it
// cannot: EnqClosed after Close, EnqFull when the configured item or ring
// budget is exhausted. v must not be Bottom.
//
// Bounded mode reserves budget first (one atomic add on the item account,
// refunded if the add overshoots), so the number of accepted-but-not-
// dequeued items can never exceed Capacity, even transiently; the account
// itself may, by the in-flight overshoots (see Items). The ring budget is enforced on the
// append slow path: an enqueuer that would have to link a segment past
// MaxRings backs out instead, which keeps the chain's length — and thus the
// queue's memory — bounded no matter how far a consumer has stalled.
// Dequeuers are never gated, so the queue's op-wise nonblocking progress is
// unchanged: some dequeue always completes in a bounded number of its own
// steps, and every rejected enqueue completes (with EnqFull) immediately.
//
//lcrq:hotpath
func (q *LCRQ) EnqueueStatus(h *Handle, v uint64) EnqStatus {
	if v == Bottom {
		panic("core: enqueue of reserved value Bottom")
	}
	if q.traced {
		h.resetEnqTrace()
		h.maybeArmTrace(1)
	}
	if cap := q.cfg.Capacity; cap > 0 {
		if q.items.Add(1) > cap {
			q.items.Add(-1)
			// Closed wins over full: a producer parked at the capacity gate
			// (EnqueueWait) must observe Close even when no slot ever frees.
			if q.closed.Load() {
				return EnqClosed
			}
			q.reject()
			return EnqFull
		}
	}
	st := q.enqueue(h, v)
	if st != EnqOK && q.cfg.Capacity > 0 {
		q.items.Add(-1) // hand the reservation back
	}
	switch {
	case st == EnqFull:
		q.reject()
	case st == EnqOK && q.bounded:
		// A success ends any full episode; the next rejection re-arms the
		// EvCapacityReject tap. Gating on bounded (not MaxRings alone)
		// keeps the reset alive for any bounded configuration regardless of
		// how normalization derives the ring budget. Plain load first so the
		// steady non-full state costs one read, not a store.
		if q.full.Load() {
			q.full.Store(false)
		}
	}
	return st
}

// EnqueueBatch appends the values of vs, in order, amortizing the hot-line
// tail F&A over the whole batch (see CRQ.EnqueueBatch) and spilling across
// ring segments as rings close. It returns how many values were accepted —
// always a prefix of vs — and the status of the remainder: EnqOK means the
// whole batch landed, EnqFull that a bounded queue ran out of item or ring
// budget after accepting n values, EnqClosed that the queue was closed.
// Values must not be Bottom.
//
// Bounded mode reserves the batch's budget with one atomic add and refunds
// the part the gate or the ring protocol did not use, so — exactly as with
// the single-op reserve-then-publish — the number of accepted-but-not-
// dequeued items never exceeds Capacity. Linearizability is per item: each
// reserved ring index is an independent cell transaction, so a batch of k
// values linearizes as k consecutive single enqueues by the same thread.
//
//lcrq:hotpath
func (q *LCRQ) EnqueueBatch(h *Handle, vs []uint64) (int, EnqStatus) {
	if len(vs) == 0 {
		if q.closed.Load() {
			return 0, EnqClosed
		}
		return 0, EnqOK
	}
	h.C.BatchEnqueues++
	if q.traced {
		h.resetEnqTrace()
		h.maybeArmTrace(len(vs))
	}
	allowed := len(vs)
	if cap := q.cfg.Capacity; cap > 0 {
		got := q.items.Add(int64(len(vs)))
		if over := got - cap; over > 0 {
			if over > int64(len(vs)) {
				over = int64(len(vs))
			}
			q.items.Add(-over) // refund the part the gate rejected
			allowed = len(vs) - int(over)
			if allowed == 0 {
				// Closed wins over full, as in EnqueueStatus.
				if q.closed.Load() {
					return 0, EnqClosed
				}
				q.reject()
				return 0, EnqFull
			}
		}
	}
	n, st := q.enqueueBatch(h, vs[:allowed])
	if q.cfg.Capacity > 0 && n < allowed {
		q.items.Add(int64(n - allowed)) // hand back the unused reservation
	}
	if n == len(vs) {
		// The whole batch landed: a success ends any full episode, exactly
		// as in EnqueueStatus.
		if q.bounded && q.full.Load() {
			q.full.Store(false)
		}
		return n, EnqOK
	}
	if st == EnqOK {
		// The ring protocol took everything the capacity gate allowed; the
		// truncation itself is the rejection.
		if q.closed.Load() {
			return n, EnqClosed
		}
		st = EnqFull
	}
	if st == EnqFull {
		q.reject()
	}
	return n, st
}

// enqueueBatch runs the ring protocol for a budget-approved batch: the loop
// of enqueue (Figure 5c) at batch granularity, spilling the remainder into a
// freshly appended ring whenever the tail ring closes under the batch.
//
//lcrq:hotpath
func (q *LCRQ) enqueueBatch(h *Handle, vs []uint64) (int, EnqStatus) {
	accepted := 0
	for {
		crq := q.protect(h, hpTail, &q.tail)
		if next := crq.next.Load(); next != nil {
			// Help a stalled appender swing the tail.
			h.C.CAS++
			if !q.tail.CompareAndSwap(crq, next) {
				h.C.CASFail++
			}
			continue
		}
		if q.cfg.Hierarchical {
			q.clusterGate(h, crq)
		}
		n, closed := crq.EnqueueBatch(h, vs)
		h.C.Enqueues += uint64(n)
		accepted += n
		vs = vs[n:]
		if len(vs) == 0 {
			return accepted, EnqOK
		}
		if !closed {
			// The ring clamped the reservation (batch longer than the ring):
			// keep going on the same ring with a fresh reservation.
			continue
		}
		if q.closed.Load() {
			return accepted, EnqClosed
		}
		if max := q.cfg.MaxRings; max > 0 && q.rings.Load() >= int64(max) {
			return accepted, EnqFull
		}
		// Spill: append a new ring seeded with the batch's next value; the
		// rest of the batch lands there on the following iteration.
		newcrq, recycled := q.newRing(h, vs[0])
		h.C.CAS++
		if crq.next.CompareAndSwap(nil, newcrq) {
			q.rings.Add(1)
			q.tap(EvRingAppend)
			if recycled {
				q.tap(EvRingRecycle)
			}
			chaos.Delay(chaos.Handoff)
			h.C.CAS++
			if !q.tail.CompareAndSwap(crq, newcrq) {
				h.C.CASFail++
			}
			h.C.Appends++
			h.C.Enqueues++
			h.C.BatchSpill++
			if h.traceArmed {
				h.completeEnqTrace() // the seeded value carried the stamp
			}
			accepted++
			vs = vs[1:]
			// Same post-publication close re-check as enqueue.
			if q.closed.Load() {
				newcrq.closeRing(h, EvRingClose)
			}
			if len(vs) == 0 {
				return accepted, EnqOK
			}
			continue
		}
		h.C.CASFail++
		q.releaseRing(newcrq) // lost the race; ring was never visible
	}
}

// reject accounts a capacity rejection: the exact counter always, the Tap
// event once per full episode (see LCRQ.full).
func (q *LCRQ) reject() {
	q.rejects.Add(1)
	chaos.Delay(chaos.CapacityGate)
	if !q.full.Load() && q.full.CompareAndSwap(false, true) {
		q.tap(EvCapacityReject)
	}
}

// releaseItem returns one unit of item budget after a successful dequeue.
func (q *LCRQ) releaseItem() { q.releaseItems(1) }

// releaseItems returns n units of item budget after successful dequeues
// and, on any bounded queue, ends a running full episode: budget freed by
// consumers must re-arm the EvCapacityReject tap even if no producer
// succeeds in between (a producer-side-only reset would leave a drained
// queue reporting a stale full episode until the next successful enqueue).
// The plain load keeps the steady non-full state at one read.
func (q *LCRQ) releaseItems(n int64) {
	if q.cfg.Capacity > 0 {
		q.items.Add(-n)
	}
	if q.bounded && q.full.Load() {
		q.full.Store(false)
	}
}

// FullEpisode reports whether a bounded queue is currently inside a full
// episode: a rejection has fired EvCapacityReject and nothing has ended the
// episode yet — neither a successful enqueue nor freed budget (a dequeue
// returning item budget, or a ring retirement returning ring budget).
// Always false on an unbounded queue.
func (q *LCRQ) FullEpisode() bool { return q.full.Load() }

// Items returns a capacity-bounded queue's item account: the accepted,
// not-yet-dequeued values plus the reservations of enqueues still in
// flight. The capacity gate adds before it checks and refunds an overshoot
// afterwards, so until a refund lands the account can exceed Capacity by
// at most one unit per concurrent producer (a whole batch per batch
// producer). Accepted values alone never exceed Capacity, and at a
// quiescent point, with no enqueue in flight, the account equals them
// exactly. An unbounded queue keeps no account and reports 0; use Depth
// for an approximation there.
func (q *LCRQ) Items() int64 { return q.items.Load() }

// Capacity returns the configured item bound (0 when unbounded).
func (q *LCRQ) Capacity() int64 { return q.cfg.Capacity }

// MaxRings returns the configured ring budget (0 when unbounded).
func (q *LCRQ) MaxRings() int { return q.cfg.MaxRings }

// CapacityRejects returns how many enqueue attempts a bounded queue has
// rejected.
func (q *LCRQ) CapacityRejects() uint64 { return q.rejects.Load() }

// Adaptive reports whether the adaptive contention controller is armed
// (Config.AdaptiveContention).
func (q *LCRQ) Adaptive() bool { return q.shared != nil }

// ContentionBoost returns the watchdog remediation boost currently applied
// to every handle's starvation threshold (a left-shift amount; 0 when the
// controller is disabled or unboosted).
func (q *LCRQ) ContentionBoost() uint64 {
	if q.shared == nil {
		return 0
	}
	return q.shared.Boost()
}

// ContentionRaises returns how many times remediation raised the boost.
func (q *LCRQ) ContentionRaises() uint64 {
	if q.shared == nil {
		return 0
	}
	return q.shared.Raises()
}

// ContentionDecays returns how many times remediation decayed the boost.
func (q *LCRQ) ContentionDecays() uint64 {
	if q.shared == nil {
		return 0
	}
	return q.shared.Decays()
}

// RaiseContention raises the shared starvation boost one step (saturating at
// the configured cap), returning the new boost and whether it moved. The
// watchdog calls it on a tantrum-storm verdict; it is exported for manual
// remediation and tests. No-op (0, false) when the controller is disabled.
func (q *LCRQ) RaiseContention() (uint64, bool) {
	if q.shared == nil {
		return 0, false
	}
	return q.shared.Raise()
}

// DecayContention lowers the shared starvation boost one step (flooring at
// 0), returning the new boost and whether it moved. The watchdog calls it on
// healthy ticks so a past storm's widening does not linger forever.
func (q *LCRQ) DecayContention() (uint64, bool) {
	if q.shared == nil {
		return 0, false
	}
	return q.shared.Decay()
}

// OrphanRecoveries returns how many leaked handles (never Released) had
// their reclamation records recovered by the orphan finalizer.
func (q *LCRQ) OrphanRecoveries() uint64 { return q.orphans.Load() }

// enqueue is the core protocol loop of Figure 5, extended with the queue
// close check (PR 1) and the ring budget gate (bounded mode). The
// hotpath annotation tolerates the slow-path calls (newRing, taps) —
// callees are checked under their own annotations — while pinning the
// loop itself allocation- and blocking-free.
//
//lcrq:hotpath
func (q *LCRQ) enqueue(h *Handle, v uint64) EnqStatus {
	for {
		crq := q.protect(h, hpTail, &q.tail)
		if next := crq.next.Load(); next != nil {
			// Help a stalled appender swing the tail (Figure 5c, 156-158).
			h.C.CAS++
			if !q.tail.CompareAndSwap(crq, next) {
				h.C.CASFail++
			}
			continue
		}
		if q.cfg.Hierarchical {
			q.clusterGate(h, crq)
		}
		if crq.Enqueue(h, v) {
			h.C.Enqueues++
			return EnqOK
		}
		// Tail CRQ is closed. If the queue itself has been closed, the
		// enqueue fails instead of appending a fresh ring; Close guarantees
		// every ring in the chain is (or will be) closed, so this check on
		// the append slow path is the only one the hot path needs.
		if q.closed.Load() {
			return EnqClosed
		}
		// Ring budget gate: refuse to link a segment past MaxRings. The
		// check sits in the same loop iteration as the publication CAS
		// below, and appenders serialize on that CAS (only one wins per
		// iteration, each raising rings by exactly one), so rings can never
		// exceed the budget: the winner at rings == MaxRings-1 brings the
		// chain to the budget, and every contender re-running this loop
		// afterwards is turned away here before allocating.
		if max := q.cfg.MaxRings; max > 0 && q.rings.Load() >= int64(max) {
			return EnqFull
		}
		// Append a new CRQ containing v (159-166).
		newcrq, recycled := q.newRing(h, v)
		h.C.CAS++
		if crq.next.CompareAndSwap(nil, newcrq) {
			q.rings.Add(1)
			q.tap(EvRingAppend)
			if recycled {
				q.tap(EvRingRecycle)
			}
			chaos.Delay(chaos.Handoff)
			h.C.CAS++
			if !q.tail.CompareAndSwap(crq, newcrq) {
				h.C.CASFail++
			}
			h.C.Appends++
			h.C.Enqueues++
			if h.traceArmed {
				h.completeEnqTrace() // the seeded value carried the stamp
			}
			// A Close racing with this append may have walked the chain
			// before newcrq was visible. Re-checking after the publication
			// CAS closes the race: if the flag is now set, either Close saw
			// newcrq and closed it, or we close it ourselves here. The item
			// just seeded stays and will be drained.
			if q.closed.Load() {
				newcrq.closeRing(h, EvRingClose)
			}
			return EnqOK
		}
		h.C.CASFail++
		q.releaseRing(newcrq) // lost the race; ring was never visible
	}
}

// Close permanently closes the queue to new enqueues. Enqueues that begin
// after Close returns fail (Enqueue returns false); dequeues continue to
// drain the items already in the queue and report empty afterwards.
// Operations concurrent with Close may linearize on either side of it.
// Close is idempotent and safe to call concurrently.
func (q *LCRQ) Close(h *Handle) {
	if q.closed.CompareAndSwap(false, true) {
		q.tap(EvQueueClose)
	}
	// Close every ring reachable at the chain's end. An appender that
	// published a ring before observing the closed flag re-checks the flag
	// after publication (see Enqueue), so any ring this walk misses is
	// closed by its appender; the walk and that re-check together guarantee
	// the chain ends in a closed ring with no open successor.
	for {
		crq := q.protect(h, hpTail, &q.tail)
		if next := crq.next.Load(); next != nil {
			h.C.CAS++
			if !q.tail.CompareAndSwap(crq, next) {
				h.C.CASFail++
			}
			continue
		}
		crq.closeRing(h, EvRingClose)
		if crq.next.Load() == nil {
			return
		}
	}
}

// Closed reports whether Close has been called.
func (q *LCRQ) Closed() bool { return q.closed.Load() }

// Dequeue removes and returns the oldest value. ok is false if the queue
// is empty.
//
// The retry of the head CRQ after observing a non-nil next (the second
// Dequeue call below) is the December 2013 correction: without it, an item
// enqueued into the head CRQ after its drain but before the head swing
// could be skipped, losing it.
//
//lcrq:hotpath
func (q *LCRQ) Dequeue(h *Handle) (v uint64, ok bool) {
	if q.traced {
		h.traceHits = 0
	}
	for {
		crq := q.protect(h, hpHead, &q.head)
		if q.cfg.Hierarchical {
			q.clusterGate(h, crq)
		}
		if v, ok := crq.Dequeue(h); ok {
			h.C.Dequeues++
			q.releaseItem()
			if h.traceHits != 0 {
				q.deliverTraces(h)
			}
			return v, true
		}
		if crq.next.Load() == nil {
			h.C.Dequeues++
			h.C.Empty++
			return Bottom, false
		}
		if v, ok := crq.Dequeue(h); ok {
			h.C.Dequeues++
			q.releaseItem()
			if h.traceHits != 0 {
				q.deliverTraces(h)
			}
			return v, true
		}
		chaos.Delay(chaos.Handoff)
		h.C.CAS++
		if q.head.CompareAndSwap(crq, crq.next.Load()) {
			q.retireRing(h, crq)
		} else {
			h.C.CASFail++
		}
	}
}

// DequeueBatch removes up to len(out) of the oldest values into out with one
// head F&A per ring visited (see CRQ.DequeueBatch), returning how many were
// dequeued. 0 means the queue was observed empty. A batch never crosses a
// ring boundary: once the head ring yields values the batch returns them, so
// partial fills are normal — call again for more. As with EnqueueBatch,
// linearizability is per item: a batch of k dequeues linearizes as k
// consecutive single dequeues by the same thread.
//
// The December-2013 retry of the head ring after observing a non-nil next
// is preserved verbatim from Dequeue; without it a batch could swing the
// head past an item deposited between the drain and the swing.
//
//lcrq:hotpath
func (q *LCRQ) DequeueBatch(h *Handle, out []uint64) int {
	if len(out) == 0 {
		return 0
	}
	h.C.BatchDequeues++
	if q.traced {
		h.traceHits = 0
	}
	for {
		crq := q.protect(h, hpHead, &q.head)
		if q.cfg.Hierarchical {
			q.clusterGate(h, crq)
		}
		if n := crq.DequeueBatch(h, out); n > 0 {
			h.C.Dequeues += uint64(n)
			q.releaseItems(int64(n))
			if h.traceHits != 0 {
				q.deliverTraces(h)
			}
			return n
		}
		if crq.next.Load() == nil {
			// The batch observed empty: one completed (empty) dequeue,
			// mirroring the single-op accounting.
			h.C.Dequeues++
			h.C.Empty++
			return 0
		}
		if n := crq.DequeueBatch(h, out); n > 0 {
			h.C.Dequeues += uint64(n)
			q.releaseItems(int64(n))
			if h.traceHits != 0 {
				q.deliverTraces(h)
			}
			return n
		}
		chaos.Delay(chaos.Handoff)
		h.C.CAS++
		if q.head.CompareAndSwap(crq, crq.next.Load()) {
			q.retireRing(h, crq)
		} else {
			h.C.CASFail++
		}
	}
}

// clusterGate implements the LCRQ+H admission protocol (§4.1.1): if the
// ring is currently owned by another cluster, wait up to ClusterTimeout for
// ownership to arrive, then claim it with a CAS and proceed regardless of
// the CAS outcome. The gate never blocks an operation permanently, so the
// queue remains nonblocking.
//
// The clock is read once to set the deadline and then consulted only every
// 64th spin, in the same iteration that yields the scheduler: a time.Now()
// per spin cost more than the loads the gate exists to batch, and the
// deadline only needs scheduler-tick resolution. GateSpins counts the
// iterations so telemetry can see gate pressure.
func (q *LCRQ) clusterGate(h *Handle, crq *CRQ) {
	cur := crq.cluster.Load()
	if cur == h.Cluster {
		return
	}
	// Jitter the timeout so gate-parked threads of one cluster do not all
	// give up and CAS-claim the ring in the same instant (the claim herd is
	// the gate's own thundering-herd hazard). The jitter source lives in the
	// handle's controller and works whether or not adaptation is armed.
	deadline := time.Now().Add(h.Ctl.Jitter(q.cfg.ClusterTimeout))
	for spin := 0; ; spin++ {
		if crq.cluster.Load() == h.Cluster {
			return
		}
		h.C.GateSpins++
		if spin%64 == 63 {
			runtime.Gosched()
			if !time.Now().Before(deadline) {
				break
			}
		}
	}
	cur = crq.cluster.Load()
	if cur != h.Cluster {
		h.C.CAS++
		if !crq.cluster.CompareAndSwap(cur, h.Cluster) {
			h.C.CASFail++
		}
	}
}
