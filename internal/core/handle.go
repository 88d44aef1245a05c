package core

import (
	"runtime"

	"lcrq/internal/contention"
	"lcrq/internal/hazard"
	"lcrq/internal/instrument"
)

// Hazard-pointer slot assignments within a handle.
const (
	hpHead  = iota // protects the CRQ a dequeue works in
	hpTail         // protects the CRQ an enqueue works in
	hpSlots        // total slots per record
)

// Handle is a per-thread context for queue operations. Each worker thread
// (goroutine) must use its own Handle; a Handle must never be used
// concurrently. Handles carry the thread's hazard-pointer record, its
// cluster identity for the hierarchical variant, and the instrumentation
// counters for Tables 2 and 3.
type Handle struct {
	// C accumulates this thread's operation statistics. Reading it is only
	// meaningful while the handle is quiescent.
	C instrument.Counters

	// Cluster is the thread's cluster (processor package) id, used by the
	// LCRQ+H variant. The harness assigns it from the placement policy;
	// standalone users can leave it 0.
	Cluster int64

	// Ctl is the adaptive contention controller (Config.AdaptiveContention):
	// single-writer state owned by the handle's goroutine exactly like C, so
	// it lives on the handle's private memory and its fast-path methods use
	// no atomics. Initialized by the queue even on fixed-constant queues —
	// its jitter source serves the wait-backoff herd dispersion regardless
	// of whether adaptation is armed.
	Ctl contention.Controller

	hp       *hazard.Record[CRQ] // nil in GC mode (Config.NoHazard)
	owner    *LCRQ
	guard    *recoveryGuard // orphan-recovery finalizer anchor; nil in GC mode
	released bool

	// Item-trace state (see trace.go). All single-writer, owned by the
	// handle's goroutine like C; the dequeue-side hit buffer is fixed-size so
	// recording a hit never allocates on the hot path.
	traceSampleN   int    // sampling stride copied from Config (0 = no self-arming)
	traceCountdown int    // enqueues until the next sampled arm
	traceRand      uint64 // xorshift64 state: trace IDs + countdown phase
	traceArmed     bool   // the next deposited value gets a stamp
	traceForced    bool   // armed by ForceTrace rather than the sampler
	traceID        uint64 // the ID to stamp while armed
	lastEnqTraced  bool   // the most recent enqueue op deposited a stamp
	lastEnqID      uint64
	traceHits      int // stamped items claimed by the most recent dequeue op
	traceHitBuf    [traceBatchMax]TraceHit
}

// recoveryGuard recovers the hazard record of a handle that is leaked
// instead of Released: a goroutine that exits (or panics away) without
// Release would otherwise leave the record permanently active, its sticky
// slots holding up to two rings back from the recycler forever.
//
// The guard deliberately holds the record and queue pointers itself rather
// than the Handle: a finalizer's closure is a GC root, so a finalizer that
// referenced the Handle would keep the Handle reachable forever and never
// run. The guard is only reachable *from* the Handle, so once the Handle is
// garbage the guard's finalizer fires and returns the record. Release
// disarms the finalizer first, making the orderly path free of it.
type recoveryGuard struct {
	hp *hazard.Record[CRQ]
	q  *LCRQ
}

// recover is the guard's finalizer: return the orphaned record and account
// the leak. The record cannot be in concurrent use — the finalizer only
// runs once the owning Handle is unreachable, and Handles are
// single-threaded by contract.
func (g *recoveryGuard) recover() {
	g.hp.Release()
	g.q.orphans.Add(1)
	g.q.tap(EvOrphanRecover)
}

// armRecovery attaches the orphan-recovery finalizer to h.
func (h *Handle) armRecovery(q *LCRQ) {
	g := &recoveryGuard{hp: h.hp, q: q}
	h.guard = g
	runtime.SetFinalizer(g, (*recoveryGuard).recover)
}

// Release returns the handle's hazard record to its queue's domain.
// The handle must not be used afterwards. Releasing a handle twice panics:
// the second release would hand the same record to two future handles,
// silently corrupting the hazard domain's record pool.
func (h *Handle) Release() {
	if h.released {
		panic("core: Handle released twice; a released handle must not be reused")
	}
	h.released = true
	if h.guard != nil {
		runtime.SetFinalizer(h.guard, nil)
		h.guard = nil
	}
	if h.hp != nil {
		h.hp.Release()
		h.hp = nil
	}
	h.owner = nil
}

// NewHandle returns a detached handle suitable for standalone CRQ use and
// for tests. Handles used with an LCRQ must come from (*LCRQ).NewHandle.
func NewHandle() *Handle {
	h := &Handle{}
	h.Ctl.Init(false, 0, 0, 0, nil)
	return h
}

// initContention seeds the handle's contention controller from the queue's
// configuration. Called for every handle the queue issues, enabled or not:
// the controller's RNG also drives the wait-backoff jitter, which fixed-
// constant queues want too.
func (h *Handle) initContention(q *LCRQ) {
	h.Ctl.Init(q.cfg.AdaptiveContention, q.cfg.AdaptSpinMin, q.cfg.AdaptSpinMax,
		q.cfg.AdaptDecay, q.shared)
}

// adaptFail is the cell-retry hook of the adaptive controller: raise the
// MIAD backoff level and burn the returned jittered pause before the next
// attempt. Callers gate on Config.AdaptiveContention so the disabled path
// stays branch-identical to the pre-adaptive code.
//
//lcrq:hotpath
func (h *Handle) adaptFail() {
	n, raised := h.Ctl.Fail()
	if raised {
		h.C.AdaptRaises++
	}
	if n > 0 {
		h.C.AdaptSpins += uint64(n)
		contention.Pause(n)
	}
}

// adaptOK is the success hook: additively decay the backoff level.
//
//lcrq:hotpath
func (h *Handle) adaptOK() {
	if h.Ctl.Success() {
		h.C.AdaptDecays++
	}
}
