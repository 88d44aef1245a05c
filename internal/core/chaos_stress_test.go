//go:build chaos

package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lcrq/internal/chaos"
	"lcrq/internal/linearize"
	"lcrq/internal/xrand"
)

// chaosCampaign records genuinely concurrent histories on an LCRQ built
// from cfg and verifies each with the exhaustive linearizability checker.
// Histories are kept tiny (the checker is exponential); the value comes
// from the number of distinct fault-perturbed interleavings. It returns how
// many laps the furthest round's last ring went round (its tail index over
// R), so a campaign can show that its indices wrapped.
func chaosCampaign(t *testing.T, cfg Config, rounds, threads, opsEach int, seed uint64) (laps uint64) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		q := NewLCRQ(cfg)
		rec := linearize.NewRecorder(threads)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := q.NewHandle()
				defer h.Release()
				rng := xrand.New(seed + uint64(round)*1000 + uint64(th))
				<-start
				for i := 0; i < opsEach; i++ {
					if rng.Uint64()%2 == 0 {
						v := uint64(th)<<32 | uint64(i) + 1
						inv := rec.Now()
						if q.Enqueue(h, v) {
							rec.Append(th, linearize.Op{
								Kind: linearize.Enq, Value: v,
								Invoke: inv, Return: rec.Now(),
							})
						}
					} else {
						inv := rec.Now()
						v, ok := q.Dequeue(h)
						rec.Append(th, linearize.Op{
							Kind: linearize.Deq, Value: v, OK: ok,
							Invoke: inv, Return: rec.Now(),
						})
					}
				}
			}(th)
		}
		close(start)
		wg.Wait()
		hist := rec.History()
		if !linearize.Check(hist) {
			t.Fatalf("round %d: non-linearizable history under chaos:\n%v", round, hist)
		}
		last := q.tail.Load()
		laps = max(laps, (last.tail.Load()&^closedBit)/uint64(last.Size()))
	}
	return laps
}

// pointScenario describes how to make one injection point reachable: the
// queue configuration whose code path contains the point, and the firing
// probability (kept below 1 so forced-failure retry loops terminate).
type pointScenario struct {
	point chaos.Point
	prob  float64
	cfg   Config
}

func scenarios() []pointScenario {
	// Tiny rings and a low starvation limit force constant segment churn,
	// which is what drags every slow path into play.
	tiny := Config{RingOrder: 1, StarvationLimit: 4}
	// A capacity of 2 with three threads enqueueing about half the time
	// keeps the item budget perpetually contended, so the capacity gate's
	// rejection path runs constantly. Rejected enqueues are simply not
	// recorded — linearizability must hold over the accepted ones.
	bounded := Config{RingOrder: 1, StarvationLimit: 4, Capacity: 2}
	return []pointScenario{
		{chaos.EnqCAS2Fail, 0.3, tiny},
		{chaos.DeqCAS2Fail, 0.3, tiny},
		{chaos.RingClose, 0.2, tiny},
		{chaos.Tantrum, 0.2, tiny},
		{chaos.DelayEnq, 0.5, tiny},
		{chaos.DelayDeq, 0.5, tiny},
		{chaos.Handoff, 0.7, tiny},
		{chaos.HazardWindow, 0.5, tiny}, // default reclamation is hazard
		{chaos.CapacityGate, 0.5, bounded},
	}
}

// TestLinearizableUnderEachInjectionPoint proves the linearizability of the
// queue survives every individual injected fault, and that each scenario
// actually fired the fault it claims to test.
func TestLinearizableUnderEachInjectionPoint(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.point.String(), func(t *testing.T) {
			chaos.Reset()
			defer chaos.Reset()
			chaos.Set(sc.point, sc.prob)
			chaosCampaign(t, sc.cfg, 40, 3, 6, 1)
			if chaos.Fired(sc.point) == 0 {
				t.Fatalf("injection point %v never fired; scenario is vacuous", sc.point)
			}
		})
	}
}

// TestLinearizableUnderCombinedFaults arms every point at once — CAS2
// failures, forced closes, tantrums, and scheduling delays interacting —
// and requires linearizability to survive the combination.
func TestLinearizableUnderCombinedFaults(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.EnableAll(0.15)
	cfg := Config{RingOrder: 1, StarvationLimit: 4}
	chaosCampaign(t, cfg, 40, 3, 6, 77)
	var hits int
	for _, p := range chaos.Points() {
		if chaos.Fired(p) > 0 {
			hits++
		}
	}
	if hits < 5 {
		t.Fatalf("only %d injection points fired in the combined scenario", hits)
	}
}

// TestLinearizableRemappedRing runs the campaign on the smallest ring the
// cache remap rearranges (R = 16 in the default layout, where consecutive
// indices sit 8 cells apart): every other campaign uses RingOrder 1, which
// the remap leaves as the identity. With half the operations dequeues the
// ring stays short and open, so its indices run past the first lap onto
// reused remapped cells while CAS2 failures and delays perturb the
// interleaving.
func TestLinearizableRemappedRing(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.EnqCAS2Fail, 0.2)
	chaos.Set(chaos.DeqCAS2Fail, 0.2)
	chaos.Set(chaos.DelayEnq, 0.3)
	chaos.Set(chaos.DelayDeq, 0.3)
	if laps := chaosCampaign(t, Config{RingOrder: 4}, 80, 3, 8, 404); laps == 0 {
		t.Fatal("no round's ring got past its first lap; the campaign never reused a remapped cell")
	}
	for _, p := range []chaos.Point{chaos.EnqCAS2Fail, chaos.DeqCAS2Fail} {
		if chaos.Fired(p) == 0 {
			t.Fatalf("injection point %v never fired; the campaign is vacuous", p)
		}
	}
}

// TestLinearizableOversubscribed runs the campaign with more workers than
// processors (GOMAXPROCS clamped to 2, 8 threads), so workers are preempted
// mid-operation inside the retry and tantrum paths the faults force.
// Histories stay tiny — the value is the interleaving diversity, not the op
// count.
func TestLinearizableOversubscribed(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.EnqCAS2Fail, 0.2)
	chaos.Set(chaos.DeqCAS2Fail, 0.2)
	chaos.Set(chaos.Tantrum, 0.15)
	chaos.Set(chaos.DelayEnq, 0.3)
	chaos.Set(chaos.DelayDeq, 0.3)
	chaosCampaign(t, Config{RingOrder: 1, StarvationLimit: 4}, 25, 8, 4, 31)
	if chaos.Fired(chaos.Tantrum) == 0 {
		t.Fatal("tantrum point never fired in the oversubscribed campaign")
	}
}

// TestBoundedStalledReclaimerChaos is the stalled-reclaimer scenario the
// bounded-memory guarantee is about: a ring-bounded queue with one handle
// parked with both hazard slots published (a stuck goroutine), chaos
// widening the hazard and capacity-gate windows, and live traffic that
// retires the parked handle's rings. The parked handle can hold back only
// those two rings, so the chain must stay within budget throughout, the
// parked rings must never be recycled under the handle, and FIFO order must
// hold afterwards.
//
// The scenario runs as several short episodes on fresh queues: under -race,
// sync.Pool drops a quarter of its Puts, so a ring wrongly recycled in one
// episode may never be reused where the watcher can see it.
func TestBoundedStalledReclaimerChaos(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.HazardWindow, 0.3)
	chaos.Set(chaos.CapacityGate, 0.3)
	var recycled int64
	for episode := 0; episode < 4; episode++ {
		recycled += stalledReclaimerEpisode(t)
	}
	if chaos.Fired(chaos.HazardWindow) == 0 {
		t.Fatal("hazard-window injection point never fired; scenario is vacuous")
	}
	t.Logf("rings recycled: %d; fired: hazard-window %d, capacity-gate %d",
		recycled, chaos.Fired(chaos.HazardWindow), chaos.Fired(chaos.CapacityGate))
}

// stalledReclaimerEpisode runs one episode of
// TestBoundedStalledReclaimerChaos and returns how many rings its traffic
// took from the recycler.
func stalledReclaimerEpisode(t *testing.T) int64 {
	const (
		maxRings = 4
		rounds   = 1000
	)
	q := NewLCRQ(Config{RingOrder: 1, MaxRings: maxRings})
	// Park a handle with both slots published. With R = 2 the third
	// enqueue appends a second ring while protecting the first, and the
	// fourth moves the tail slot onto the new ring; one dequeue then leaves
	// the head slot on the first.
	parked := q.NewHandle()
	defer parked.Release()
	for v := uint64(1); v <= 4; v++ {
		if !q.Enqueue(parked, v) {
			t.Fatalf("parked enqueue %d rejected", v)
		}
	}
	tailRing := q.tail.Load()
	if v, ok := q.Dequeue(parked); !ok || v != 1 {
		t.Fatalf("parked dequeue = %d,%v, want 1,true", v, ok)
	}
	headRing := q.head.Load()
	if headRing == tailRing {
		t.Fatal("parked slots share one ring; the scenario needs two")
	}

	// A ring's tail word only grows (F&A, then the closed bit) until reset
	// zeroes it for reuse, so a value below one already observed means the
	// ring was recycled while the parked handle protected it. Each watcher
	// reads the floor before the tail, so a concurrent watcher's newer
	// observation cannot raise the floor past the value being checked.
	parkedRings := [2]*CRQ{headRing, tailRing}
	var floors [2]atomic.Uint64
	var resets atomic.Int64
	watch := func() {
		for i, r := range parkedRings {
			floor := floors[i].Load()
			tail := r.tail.Load()
			if tail < floor {
				resets.Add(1)
				continue
			}
			for floor < tail && !floors[i].CompareAndSwap(floor, tail) {
				floor = floors[i].Load()
			}
		}
	}
	watch()

	var wg sync.WaitGroup
	var overBudget, recycled atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < rounds; i++ {
				// Two bursts of four fill the four two-cell rings, so the
				// capacity gate turns enqueues away.
				for j := 0; j < 4; j++ {
					q.Enqueue(h, uint64(w+1)<<32|uint64(4*i+j))
				}
				watch()
				for j := 0; j < 4; j++ {
					q.Dequeue(h)
				}
				if q.LiveRings() > maxRings {
					overBudget.Add(1)
				}
				watch()
			}
			recycled.Add(int64(h.C.Recycled))
		}(w)
	}
	wg.Wait()
	watch()
	if n := overBudget.Load(); n > 0 {
		t.Fatalf("ring budget violated %d times with a stalled reclaimer", n)
	}
	if n := resets.Load(); n > 0 {
		t.Fatalf("a ring protected by the parked handle was recycled under it (%d observations)", n)
	}
	if head := q.head.Load(); head == headRing || head == tailRing {
		t.Fatal("traffic never retired the parked handle's rings; the scenario is vacuous")
	}
	if recycled.Load() == 0 {
		t.Fatal("no ring was recycled; the scenario is vacuous")
	}
	// The queue must still be fully usable: drain, then FIFO round-trip.
	h := q.NewHandle()
	defer h.Release()
	for {
		if _, ok := q.Dequeue(h); !ok {
			break
		}
	}
	for i := uint64(1); i <= 6; i++ {
		if !q.Enqueue(h, i) {
			t.Fatalf("post-stall enqueue %d rejected", i)
		}
	}
	for i := uint64(1); i <= 6; i++ {
		if v, ok := q.Dequeue(h); !ok || v != i {
			t.Fatalf("post-stall FIFO broken: got (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	return recycled.Load()
}

// TestCloseDrainUnderChaos runs the close/drain protocol with every fault
// armed: producers racing Close across chaos-churned segments must neither
// lose nor duplicate an accepted item.
func TestCloseDrainUnderChaos(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.EnableAll(0.1)
	const producers = 3
	for round := 0; round < 20; round++ {
		q := NewLCRQ(Config{RingOrder: 1, StarvationLimit: 4})
		accepted := make([]uint64, producers)
		var total atomic.Uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h := q.NewHandle()
				defer h.Release()
				<-start
				for i := 0; i < 64; i++ {
					if !q.Enqueue(h, uint64(p)<<32|uint64(i)+1) {
						return
					}
					accepted[p]++
					total.Add(1)
				}
			}(p)
		}
		closer := q.NewHandle()
		close(start)
		// Let chaos-perturbed traffic build up before pulling the plug;
		// producers only stop on close, so this always terminates.
		for total.Load() < 24 {
			runtime.Gosched()
		}
		q.Close(closer)
		wg.Wait()
		closer.Release()
		consumed := make(map[int][]uint64)
		h := q.NewHandle()
		for {
			v, ok := q.Dequeue(h)
			if !ok {
				break
			}
			consumed[int(v>>32)] = append(consumed[int(v>>32)], v&0xffffffff)
		}
		if q.Enqueue(h, 1) {
			t.Fatal("enqueue accepted after close and drain")
		}
		h.Release()
		for p := 0; p < producers; p++ {
			if uint64(len(consumed[p])) != accepted[p] {
				t.Fatalf("round %d producer %d: accepted %d, consumed %d",
					round, p, accepted[p], len(consumed[p]))
			}
			for i, v := range consumed[p] {
				if v != uint64(i)+1 {
					t.Fatalf("round %d producer %d: consumed[%d] = %d, want %d",
						round, p, i, v, i+1)
				}
			}
		}
	}
	if chaos.Fired(chaos.RingClose)+chaos.Fired(chaos.Tantrum) == 0 {
		t.Fatal("close/drain chaos test never forced a ring close or tantrum")
	}
}

// scqScenarios mirrors scenarios() for the portable SCQ ring: its own CAS
// and slow-path points plus the shared list-layer points, each with a
// configuration that routes traffic through the SCQ engine.
func scqScenarios() []pointScenario {
	tiny := Config{RingOrder: 1, StarvationLimit: 4, Ring: RingSCQ}
	bounded := Config{RingOrder: 1, StarvationLimit: 4, Ring: RingSCQ, Capacity: 2}
	return []pointScenario{
		{chaos.ScqEnqCAS, 0.3, tiny},
		{chaos.ScqDeqCAS, 0.3, tiny},
		{chaos.ScqCatchup, 0.5, tiny},
		{chaos.ScqThreshold, 0.5, tiny},
		{chaos.RingClose, 0.2, tiny},
		{chaos.Tantrum, 0.2, tiny},
		{chaos.DelayEnq, 0.5, tiny},
		{chaos.DelayDeq, 0.5, tiny},
		{chaos.CapacityGate, 0.5, bounded},
	}
}

// TestSCQLinearizableUnderEachInjectionPoint is the SCQ counterpart of the
// per-point campaign: linearizability must survive each fault individually,
// and each point must actually fire on the SCQ code path.
func TestSCQLinearizableUnderEachInjectionPoint(t *testing.T) {
	for _, sc := range scqScenarios() {
		t.Run(sc.point.String(), func(t *testing.T) {
			chaos.Reset()
			defer chaos.Reset()
			chaos.Set(sc.point, sc.prob)
			chaosCampaign(t, sc.cfg, 40, 3, 6, 13)
			if chaos.Fired(sc.point) == 0 {
				t.Fatalf("injection point %v never fired; scenario is vacuous", sc.point)
			}
		})
	}
}

// TestSCQLinearizableUnderCombinedFaults arms every point at once over the
// SCQ engine.
func TestSCQLinearizableUnderCombinedFaults(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.EnableAll(0.15)
	cfg := Config{RingOrder: 1, StarvationLimit: 4, Ring: RingSCQ}
	chaosCampaign(t, cfg, 40, 3, 6, 99)
	var hits int
	for _, p := range chaos.Points() {
		if chaos.Fired(p) > 0 {
			hits++
		}
	}
	if hits < 5 {
		t.Fatalf("only %d injection points fired in the combined SCQ scenario", hits)
	}
	if chaos.Fired(chaos.ScqEnqCAS)+chaos.Fired(chaos.ScqDeqCAS) == 0 {
		t.Fatal("no SCQ entry CAS ever failed; campaign missed the SCQ engine")
	}
}

// TestSCQBoundedChaos runs the capacity gate over SCQ rings under combined
// faults: the bound must hold and accepted traffic must stay linearizable.
func TestSCQBoundedChaos(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.EnableAll(0.15)
	cfg := Config{RingOrder: 1, StarvationLimit: 4, Ring: RingSCQ, Capacity: 2}
	chaosCampaign(t, cfg, 40, 3, 6, 7)
	if chaos.Fired(chaos.CapacityGate) == 0 {
		t.Fatal("capacity gate never fired; bounded SCQ scenario is vacuous")
	}
}
