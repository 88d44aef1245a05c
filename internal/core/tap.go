package core

// RingEvent identifies a ring-lifecycle transition reported to a Tap. The
// events cover exactly the slow-path transitions of the LCRQ protocol —
// closing a ring (Figure 3d line 88 / the tantrum of §3.2), appending and
// recycling ring segments (Figure 5c), unlinking a drained ring (Figure 5b),
// and the queue-wide Close of the drain lifecycle — so a trace of them
// reconstructs the queue's segment churn without touching the fast path.
type RingEvent uint8

const (
	// EvRingClose: a ring was closed to further enqueues after being
	// observed full (t − head ≥ R), or by a helper completing a close.
	EvRingClose RingEvent = iota
	// EvRingTantrum: a ring was closed by the starvation path — an enqueuer
	// exhausted StarvationLimit failed cell attempts and threw its tantrum.
	EvRingTantrum
	// EvRingAppend: a freshly allocated ring was published onto the list.
	EvRingAppend
	// EvRingRecycle: the published ring was obtained from the recycler
	// rather than allocated (always preceded by an EvRingAppend).
	EvRingRecycle
	// EvRingRetire: a drained ring was unlinked from the list and handed to
	// the reclamation scheme.
	EvRingRetire
	// EvQueueClose: the queue was closed to new enqueues (first Close call).
	EvQueueClose
	// EvCapacityReject: a bounded queue rejected an enqueue for lack of
	// item or ring budget. Emitted once per full episode (the first
	// rejection after a successful enqueue), not per rejected call, so a
	// polling EnqueueWait cannot flood the trace.
	EvCapacityReject
	// EvOrphanRecover: a handle leaked without Release had its reclamation
	// record returned to the domain by the orphan-recovery finalizer.
	EvOrphanRecover
	// EvWatchdogAlert: the watchdog's health verdict transitioned from ok
	// to a detected problem (tantrum storm, append livelock, capacity stall).
	EvWatchdogAlert
	// EvWatchdogRecover: the watchdog's health verdict returned to ok after
	// a problem, having stayed clean for the recovery hysteresis window
	// (consecutive ok ticks). Every EvWatchdogAlert is eventually paired
	// with an EvWatchdogRecover unless the queue closes first, so a
	// consumer of the event trace (e.g. a load shedder) can follow the
	// health state machine without polling.
	EvWatchdogRecover
	// EvContentionAdapt: the watchdog's remediation moved the shared
	// starvation boost of the adaptive contention controller — raised on a
	// tantrum-storm verdict, decayed on a return to health. Emitted only
	// when the boost actually changed (saturated raises and floored decays
	// are silent), so the event trace records the controller's trajectory.
	EvContentionAdapt

	// NumRingEvents is the number of event kinds; it is not itself an event.
	NumRingEvents
)

var ringEventNames = [NumRingEvents]string{
	EvRingClose:       "ring-close",
	EvRingTantrum:     "ring-tantrum",
	EvRingAppend:      "ring-append",
	EvRingRecycle:     "ring-recycle",
	EvRingRetire:      "ring-retire",
	EvQueueClose:      "queue-close",
	EvCapacityReject:  "capacity-reject",
	EvOrphanRecover:   "orphan-recover",
	EvWatchdogAlert:   "watchdog-alert",
	EvWatchdogRecover: "watchdog-recover",
	EvContentionAdapt: "contention-adapt",
}

// String returns the event's stable name, as used in traces and exporters.
func (e RingEvent) String() string {
	if e < NumRingEvents {
		return ringEventNames[e]
	}
	return "unknown"
}

// Tap receives ring-lifecycle notifications. All notification sites are on
// slow paths (ring close, append, retire, queue close), so a Tap never adds
// cost to the per-operation fast path; a nil Tap in Config disables
// notification entirely. Implementations must be safe for concurrent use
// and must not call back into the queue.
type Tap interface {
	RingEvent(ev RingEvent)
}
