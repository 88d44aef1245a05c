package resilience

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShedderHysteresis: one problem observation opens the shedder
// immediately (rejecting early is cheap; admitting into a stall is not),
// but closing requires RecoverObservations consecutive clean ones, so a
// verdict flickering at the detection threshold cannot flap admission.
func TestShedderHysteresis(t *testing.T) {
	s := NewShedder(ShedConfig{RecoverObservations: 3})
	if s.Shedding() {
		t.Fatal("new shedder must admit")
	}

	s.Observe(false, "capacity-stall")
	if !s.Shedding() {
		t.Fatal("problem verdict must open the shedder")
	}
	st := s.State()
	if !st.Shedding || st.Verdict != "capacity-stall" || st.Opens != 1 || st.Since.IsZero() {
		t.Fatalf("open state = %+v", st)
	}

	// Two clean observations: still shedding (hysteresis).
	s.Observe(true, "ok")
	s.Observe(true, "ok")
	if !s.Shedding() {
		t.Fatal("shedder closed before RecoverObservations clean ticks")
	}

	// A relapse resets the streak.
	s.Observe(false, "capacity-stall")
	s.Observe(true, "ok")
	s.Observe(true, "ok")
	if !s.Shedding() {
		t.Fatal("relapse did not reset the recovery streak")
	}
	if got := s.State().Opens; got != 1 {
		t.Fatalf("relapse while open counted as a new open: Opens = %d, want 1", got)
	}

	// The third consecutive clean observation closes it.
	s.Observe(true, "ok")
	if s.Shedding() {
		t.Fatal("shedder still open after RecoverObservations clean ticks")
	}

	// Reopening counts.
	s.Observe(false, "append-livelock")
	if !s.Shedding() || s.State().Opens != 2 {
		t.Fatalf("reopen state = %+v", s.State())
	}
}

// TestShedderVerdictFilter: verdicts outside the configured set describe
// churn the queue absorbs — they must not shed, and while the shedder is
// open they count as recovery (the *shedding* condition cleared).
func TestShedderVerdictFilter(t *testing.T) {
	s := NewShedder(ShedConfig{RecoverObservations: 2})
	s.Observe(false, "tantrum-storm")
	if s.Shedding() {
		t.Fatal("tantrum-storm is not a shed verdict")
	}
	s.Observe(false, "capacity-stall")
	s.Observe(false, "tantrum-storm")
	s.Observe(false, "tantrum-storm")
	if s.Shedding() {
		t.Fatal("non-shed verdicts must count toward recovery")
	}
}

// TestShedderConcurrent: Observe and Shedding race without corruption
// (Shedding is the per-request hot path).
func TestShedderConcurrent(t *testing.T) {
	s := NewShedder(ShedConfig{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Shedding()
					s.State()
				}
			}
		}()
	}
	for i := 0; i < 10000; i++ {
		s.Observe(i%3 == 0, "capacity-stall")
	}
	close(stop)
	wg.Wait()
}

// TestDrainRate: the estimator must track the recent window, and
// RetryAfter must scale with backlog over rate within its clamps.
func TestDrainRate(t *testing.T) {
	var r DrainRate
	base := time.Now()
	if got := r.PerSecond(); got != 0 {
		t.Fatalf("empty estimator PerSecond = %v", got)
	}
	if got := r.RetryAfter(1000); got != retryAfterMin {
		t.Fatalf("unknown-rate RetryAfter = %v, want floor %v", got, retryAfterMin)
	}

	// 100 items/s over 2 seconds of samples.
	for i := 0; i <= 20; i++ {
		r.Observe(base.Add(time.Duration(i)*100*time.Millisecond), uint64(i*10))
	}
	rate := r.PerSecond()
	if rate < 90 || rate > 110 {
		t.Fatalf("PerSecond = %v, want ≈100", rate)
	}

	// Backlog 800 → drain an eighth (100 items) at 100/s → 1s.
	if got := r.RetryAfter(800); got != 1*time.Second {
		t.Fatalf("RetryAfter(800) = %v, want 1s", got)
	}
	// Backlog 8000 → 1000 items at 100/s → 10s.
	if got := r.RetryAfter(8000); got != 10*time.Second {
		t.Fatalf("RetryAfter(8000) = %v, want 10s", got)
	}
	// Enormous backlog clamps at the ceiling.
	if got := r.RetryAfter(10_000_000); got != retryAfterMax {
		t.Fatalf("RetryAfter(huge) = %v, want ceiling %v", got, retryAfterMax)
	}

	// Stalled consumers: later samples with no progress age the window out
	// and the estimate returns to "unknown".
	for i := 0; i <= 120; i++ {
		r.Observe(base.Add(2*time.Second+time.Duration(i)*100*time.Millisecond), 200)
	}
	if got := r.PerSecond(); got != 0 {
		t.Fatalf("stalled PerSecond = %v, want 0", got)
	}
}

// TestLifecycle: the one-way serving→draining→closed progression, the
// idempotence of its transitions, and the wait channels.
func TestLifecycle(t *testing.T) {
	var l Lifecycle
	if l.State() != Serving || l.State().String() != "serving" {
		t.Fatalf("zero lifecycle = %v", l.State())
	}
	select {
	case <-l.DrainBegun():
		t.Fatal("DrainBegun closed before BeginDrain")
	default:
	}

	if !l.BeginDrain() {
		t.Fatal("first BeginDrain must report the transition")
	}
	if l.BeginDrain() {
		t.Fatal("second BeginDrain must be a no-op")
	}
	if l.State() != Draining {
		t.Fatalf("state after BeginDrain = %v", l.State())
	}
	<-l.DrainBegun() // must not block

	l.MarkClosed()
	l.MarkClosed() // idempotent
	if l.State() != Closed {
		t.Fatalf("state after MarkClosed = %v", l.State())
	}
	<-l.Done()

	// Closing without draining still releases drain waiters.
	var abort Lifecycle
	abort.MarkClosed()
	<-abort.DrainBegun()
	<-abort.Done()
	if abort.BeginDrain() {
		t.Fatal("BeginDrain after close must be a no-op")
	}
}

// TestDedup: replayed keys return the recorded outcome without
// re-execution; eviction is FIFO and bounded; first outcome wins.
func TestDedup(t *testing.T) {
	d := NewDedup(3)
	if _, ok := d.Seen("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	d.Record("a", DedupOutcome{Accepted: 5, Status: 200})
	d.Record("a", DedupOutcome{Accepted: 99, Status: 500}) // ignored: first outcome wins
	if out, ok := d.Seen("a"); !ok || out.Accepted != 5 || out.Status != 200 {
		t.Fatalf("Seen(a) = %+v,%v", out, ok)
	}
	d.Record("b", DedupOutcome{Accepted: 1})
	d.Record("c", DedupOutcome{Accepted: 2})
	d.Record("d", DedupOutcome{Accepted: 3}) // evicts a
	if _, ok := d.Seen("a"); ok {
		t.Fatal("oldest key not evicted")
	}
	for k, want := range map[string]int{"b": 1, "c": 2, "d": 3} {
		if out, ok := d.Seen(k); !ok || out.Accepted != want {
			t.Fatalf("Seen(%s) = %+v,%v, want Accepted %d", k, out, ok, want)
		}
	}
	if d.Replays() != 4 {
		t.Fatalf("Replays = %d, want 4", d.Replays())
	}

	// Disabled and empty-key paths.
	off := NewDedup(0)
	off.Record("x", DedupOutcome{})
	if _, ok := off.Seen("x"); ok {
		t.Fatal("disabled cache reported a hit")
	}
	d.Record("", DedupOutcome{})
	if _, ok := d.Seen(""); ok {
		t.Fatal("empty key must never hit")
	}
}

// TestDedupChurn: sustained churn far past the cap keeps the cache
// bounded and the newest window resident.
func TestDedupChurn(t *testing.T) {
	d := NewDedup(64)
	for i := 0; i < 10_000; i++ {
		d.Record(fmt.Sprint(i), DedupOutcome{Accepted: i})
	}
	if n := len(d.entries); n != 64 {
		t.Fatalf("cache grew to %d entries, cap 64", n)
	}
	for i := 10_000 - 64; i < 10_000; i++ {
		if out, ok := d.Seen(fmt.Sprint(i)); !ok || out.Accepted != i {
			t.Fatalf("recent key %d missing (got %+v,%v)", i, out, ok)
		}
	}
}

// TestCountersExport: the Prometheus rendering and the snapshot must agree
// with each other and carry every field exactly once.
func TestCountersExport(t *testing.T) {
	var c Counters
	c.EnqueueRequests.Add(7)
	c.ShedRejects.Add(3)
	snap := c.Snapshot()
	if snap["lcrq_qserve_enqueue_requests_total"] != 7 || snap["lcrq_qserve_shed_rejects_total"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
	var b strings.Builder
	c.WritePrometheus(&b)
	text := b.String()
	for name, v := range snap {
		if !strings.Contains(text, fmt.Sprintf("%s %d\n", name, v)) {
			t.Fatalf("prometheus text missing %s %d:\n%s", name, v, text)
		}
	}
	if got, want := strings.Count(text, "# TYPE"), len(snap); got != want {
		t.Fatalf("prometheus text has %d series, snapshot %d", got, want)
	}
}
