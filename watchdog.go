package lcrq

import (
	"fmt"
	"sync"
	"time"

	"lcrq/internal/chaos"
	"lcrq/internal/core"
)

// Health is the watchdog's current verdict on the queue (WithWatchdog).
// The zero value means "no watchdog"; see Queue.Health.
type Health struct {
	// OK is false while the watchdog's latest check detected a problem.
	OK bool

	// Verdict names the state: "disabled", "ok", or one of the problem
	// verdicts "tantrum-storm", "append-livelock", "capacity-stall".
	Verdict string

	// Detail elaborates the problem verdict with the numbers that triggered
	// it; empty while healthy.
	Detail string

	// Checks is how many inspection ticks the watchdog has completed, and
	// LastCheck when the latest finished. A Checks that stops advancing
	// means the watchdog itself was stopped (Close).
	Checks    uint64
	LastCheck time.Time
}

// Watchdog detection thresholds, per check interval. They are deliberately
// coarse: the watchdog flags sustained pathology a human should look at,
// not transient contention the queue is designed to absorb.
const (
	// wdTantrumStorm: ring closes by tantrum per tick that indicate
	// starvation-close livelock rather than occasional contention. A
	// healthy queue closes rings by filling them; a storm of tantrums means
	// enqueuers keep hitting StarvationLimit and discarding ring space.
	wdTantrumStorm = 128
	// wdAppendStorm: ring appends per tick with zero completed dequeues —
	// segments are churning while no consumer makes progress.
	wdAppendStorm = 128
	// wdCapacityTicks: consecutive ticks a bounded queue must spend full
	// (rejections arriving, zero dequeues completing) before the verdict
	// flips to capacity-stall. Two ticks filter out a full queue whose
	// consumers are merely slow to the sampling edge.
	wdCapacityTicks = 2
	// wdRecoverTicks: consecutive clean ticks a problem verdict must
	// survive before the published health flips back to ok. One lucky
	// sampling edge mid-stall would otherwise make Health() flap, and every
	// consumer (load shedders, alert routing) would flap with it. The flip
	// itself is announced as EvWatchdogRecover, pairing every
	// EvWatchdogAlert with a recovery marker in the event trace.
	wdRecoverTicks = 2
)

// watchdog is the background health checker started by WithWatchdog. Each
// tick it diffs the queue's telemetry aggregates against the previous tick
// and applies the detection rules above.
type watchdog struct {
	q        *Queue
	interval time.Duration
	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu     sync.Mutex
	health Health

	// Previous-tick aggregates for deltas.
	prevTantrums uint64
	prevAppends  uint64
	prevDequeues uint64
	prevEmpty    uint64
	prevRejects  uint64
	fullTicks    int
	okStreak     int // consecutive clean ticks while a problem verdict holds
}

func startWatchdog(q *Queue, interval time.Duration) *watchdog {
	w := &watchdog{
		q:        q,
		interval: interval,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
		health:   Health{OK: true, Verdict: "ok"},
	}
	go w.run()
	return w
}

func (w *watchdog) stop() {
	w.stopOnce.Do(func() { close(w.stopCh) })
	<-w.done
}

func (w *watchdog) run() {
	defer close(w.done)
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopCh:
			return
		case <-ticker.C:
			w.check()
		}
	}
}

// check runs one inspection tick.
func (w *watchdog) check() {
	q := w.q
	snap := q.tel.Snapshot()
	tantrums := snap.EventCounts[core.EvRingTantrum]
	appends := snap.EventCounts[core.EvRingAppend]
	dequeues := snap.Counters.Dequeues
	empty := snap.Counters.Empty
	rejects := q.q.CapacityRejects()

	dTantrums := tantrums - w.prevTantrums
	dAppends := appends - w.prevAppends
	// Completed dequeues = dequeue calls minus empty results: the measure
	// of consumer progress the capacity rules need.
	dTaken := (dequeues - w.prevDequeues) - (empty - w.prevEmpty)
	dRejects := rejects - w.prevRejects
	w.prevTantrums, w.prevAppends = tantrums, appends
	w.prevDequeues, w.prevEmpty = dequeues, empty
	w.prevRejects = rejects

	// A bounded queue spending consecutive ticks full with no consumer
	// progress is stalled; a single full tick is just backpressure working.
	if dRejects > 0 && dTaken == 0 {
		w.fullTicks++
	} else {
		w.fullTicks = 0
	}

	verdict, detail := "ok", ""
	switch {
	case dTantrums >= wdTantrumStorm:
		verdict = "tantrum-storm"
		detail = fmt.Sprintf("%d tantrum ring closes in one %v interval", dTantrums, w.interval)
	case dAppends >= wdAppendStorm && dTaken == 0:
		verdict = "append-livelock"
		detail = fmt.Sprintf("%d ring appends with no completed dequeues in one %v interval", dAppends, w.interval)
	case w.fullTicks >= wdCapacityTicks:
		verdict = "capacity-stall"
		detail = fmt.Sprintf("queue full for %d consecutive intervals (%d rejects, 0 dequeues in the last)", w.fullTicks, dRejects)
	}

	// Remediation: on an adaptive queue the verdict acts, not just reports.
	if q.q.Adaptive() {
		w.remediate(verdict)
	}

	if ev, fire := w.publish(verdict, detail); fire {
		// Route the transition through the telemetry sink (the queue's Tap),
		// so it lands in the event trace and counts like any lifecycle event.
		q.tel.RingEvent(ev)
	}
}

// remediate moves the adaptive controller's shared starvation boost from the
// tick's verdict: a tantrum storm widens every handle's effective starvation
// threshold one step (enqueuers wait longer before closing rings, so the
// storm damps instead of feeding ring churn), and a clean tick decays the
// boost one step so past widening does not outlive its storm. The chaos
// points let campaigns force either move regardless of the verdict. Each
// actual change is announced as a contention-adapt event.
func (w *watchdog) remediate(verdict string) {
	raise := verdict == "tantrum-storm"
	decay := verdict == "ok"
	if chaos.Fire(chaos.AdaptRaise) {
		raise, decay = true, false
	} else if chaos.Fire(chaos.AdaptDecay) {
		raise, decay = false, true
	}
	var changed bool
	switch {
	case raise:
		_, changed = w.q.q.RaiseContention()
	case decay:
		_, changed = w.q.q.DecayContention()
	}
	if changed {
		w.q.tel.RingEvent(core.EvContentionAdapt)
	}
}

// publish folds one tick's raw verdict into the published health, applying
// recovery hysteresis, and reports which transition event to emit:
// EvWatchdogAlert on ok→problem, EvWatchdogRecover on problem→ok. A problem
// verdict does not flip back on the first clean tick — it is held, with the
// detail annotated as recovering, until wdRecoverTicks consecutive clean
// ticks pass.
func (w *watchdog) publish(verdict, detail string) (ev core.RingEvent, fire bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	prev := w.health
	next := Health{
		OK:        verdict == "ok",
		Verdict:   verdict,
		Detail:    detail,
		Checks:    prev.Checks + 1,
		LastCheck: time.Now(),
	}
	switch {
	case verdict != "ok":
		w.okStreak = 0
		if prev.OK {
			ev, fire = core.EvWatchdogAlert, true
		}
	case !prev.OK:
		w.okStreak++
		if w.okStreak < wdRecoverTicks {
			// Hold the problem verdict through the hysteresis window.
			next.OK = false
			next.Verdict = prev.Verdict
			next.Detail = fmt.Sprintf("recovering: %d/%d clean checks", w.okStreak, wdRecoverTicks)
		} else {
			w.okStreak = 0
			ev, fire = core.EvWatchdogRecover, true
		}
	}
	w.health = next
	return ev, fire
}

// snapshot returns the current verdict.
func (w *watchdog) snapshot() Health {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.health
}

// Health returns the watchdog's current verdict. Without WithWatchdog the
// verdict is "disabled" with OK true: no checker is running, so nothing has
// been detected — it does not mean the queue was inspected and found
// healthy.
func (q *Queue) Health() Health {
	if q.wd == nil {
		return Health{OK: true, Verdict: "disabled"}
	}
	return q.wd.snapshot()
}
