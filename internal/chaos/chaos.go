// Package chaos is the fault-injection layer for the queue's slow paths.
//
// The CRQ/LCRQ correctness argument lives almost entirely in code that a
// cooperative scheduler rarely executes: cell CAS2 failures, ring closing,
// the starvation "tantrum" path, the LCRQ list hand-off windows, and the
// reclamation races that hazard pointers exist to win. Under
// normal Go scheduling these paths fire so rarely that tests barely touch
// them. This package plants named injection points inside those paths so a
// chaos test can force them to fire on demand — probabilistically failing a
// CAS2, closing a ring as if it were full, yielding the scheduler exactly at
// a linearization point — and then prove, with the linearizability checker,
// that the algorithm survives.
//
// # Build-tag gating
//
// The package has two implementations selected by the `chaos` build tag:
//
//   - Without the tag (the default, and every production build) each entry
//     point is an empty inlinable function or a constant-false predicate.
//     The compiler folds `if chaos.Fire(p)` to dead code, so injection
//     points cost literally nothing in the binary that ships.
//   - With `-tags chaos`, Fire consults a per-point probability set by the
//     test (Set, EnableAll) and Delay yields the scheduler when its point
//     fires. Fired counts how often each point triggered so tests can
//     assert a scenario actually exercised the path it claims to.
//
// Injection points are process-global: chaos scenarios configure the fault
// schedule before spawning workers and Reset it afterwards. The schedule is
// probabilistic by design — forcing a point with probability 1 can livelock
// exactly the retry loops the faults are meant to stress.
package chaos

// Point identifies a named fault-injection site in the queue's slow paths.
type Point uint8

const (
	// EnqCAS2Fail forces an enqueue cell CAS2 — the (s,k,⊥) → (1,t,v)
	// transition of Figure 3d — to be treated as failed, driving the
	// enqueuer into its retry / ring-close slow path.
	EnqCAS2Fail Point = iota
	// DeqCAS2Fail forces a dequeue-side cell CAS2 (the dequeue, unsafe, or
	// empty transition of Figure 3b) to be treated as failed.
	DeqCAS2Fail
	// RingClose closes the ring from the enqueue slow path as if it had
	// been observed full, forcing LCRQ segment appends and hand-off.
	RingClose
	// Tantrum forces the starvation path: the enqueuer behaves as if it
	// had exhausted StarvationLimit failed attempts and throws its tantrum
	// (closes the ring) immediately.
	Tantrum
	// DelayEnq yields the scheduler at the enqueue linearization point,
	// in the window between the tail fetch-and-add and the cell CAS2.
	DelayEnq
	// DelayDeq yields at the dequeue linearization point, between the head
	// fetch-and-add and the cell protocol loop.
	DelayDeq
	// Handoff yields inside the LCRQ list hand-off windows: between
	// publishing a freshly appended CRQ and swinging the tail to it, and
	// before swinging the head past a drained CRQ. These are the windows
	// the helping protocol and the December-2013 lost-item fix guard.
	Handoff
	// HazardWindow yields inside the hazard-pointer protect and
	// retire/scan windows, widening the race between publication,
	// validation, and reclamation.
	HazardWindow
	// CapacityGate yields inside the bounded-mode rejection window, between
	// a capacity (item or ring budget) rejection and its report to the
	// caller — the window an EnqueueWait retry races against dequeuers
	// freeing budget.
	CapacityGate
	// EnqWait yields inside the EnqueueWait backoff loop, between a full
	// rejection and the next retry, perturbing the wait/wake schedule of
	// blocked producers.
	EnqWait
	// BatchEnqReserve yields inside the batched-enqueue reservation window:
	// after the single tail F&A has claimed a block of consecutive indices
	// but before any cell of the block is filled — the window in which
	// dequeuers and ring closers race the whole reservation at once.
	BatchEnqReserve
	// BatchDeqReserve yields inside the batched-dequeue reservation window:
	// after the single head F&A has claimed a block of indices but before
	// the per-cell protocol runs, widening the race against enqueuers still
	// depositing and against ring retirement.
	BatchDeqReserve
	// ScqEnqCAS forces an SCQ index-queue deposit CAS — the entry
	// transition ⟨cycle, safe, ⊥⟩ → ⟨Cycle(T), 1, idx⟩ on the aq or fq —
	// to be treated as failed, driving the depositor into its retry /
	// tantrum slow path.
	ScqEnqCAS
	// ScqDeqCAS forces an SCQ dequeue-side entry CAS (the empty-advance or
	// mark-unsafe transition) to be treated as failed.
	ScqDeqCAS
	// ScqCatchup yields just before the catchup CAS that drags an SCQ tail
	// up to a head that overran it, widening the window in which fresh
	// deposits race the tail rewrite.
	ScqCatchup
	// ScqThreshold yields between an SCQ deposit CAS and the threshold
	// re-arm, widening the window in which a dequeuer can observe a
	// negative threshold although an item is already published — the
	// overlap the threshold trick's linearizability argument must cover.
	ScqThreshold

	// NumPoints is the number of injection points; it is not itself a
	// point.
	NumPoints
)

// pointNames is the injection-point registry: the stable kebab-case names
// docs, test output, and the schedule sweep key on. chaosreg checks the
// names (complete, unique, kebab-case); the one runtime backstop is
// TestPointRegistryBackstop.
//
//lcrq:points
var pointNames = [NumPoints]string{
	EnqCAS2Fail:  "enq-cas2-fail",
	DeqCAS2Fail:  "deq-cas2-fail",
	RingClose:    "ring-close",
	Tantrum:      "tantrum",
	DelayEnq:     "delay-enq",
	DelayDeq:     "delay-deq",
	Handoff:      "handoff",
	HazardWindow: "hazard-window",
	CapacityGate: "capacity-gate",
	EnqWait:      "enq-wait",

	BatchEnqReserve: "batch-enq-reserve",
	BatchDeqReserve: "batch-deq-reserve",

	ScqEnqCAS:    "scq-enq-cas-fail",
	ScqDeqCAS:    "scq-deq-cas-fail",
	ScqCatchup:   "scq-catchup",
	ScqThreshold: "scq-threshold",
}

// String returns the point's stable name, as used in docs and test output.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return "unknown"
}

// Points returns all injection points, for tests that sweep the schedule.
func Points() []Point {
	ps := make([]Point, NumPoints)
	for i := range ps {
		ps[i] = Point(i)
	}
	return ps
}
