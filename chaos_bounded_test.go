//go:build chaos

package lcrq

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcrq/internal/chaos"
	"lcrq/internal/linearize"
	"lcrq/internal/xrand"
)

// TestEnqueueWaitLinearizableUnderChaos extends the linearizability chaos
// suite to the blocking producer path: threads mix EnqueueWait (bounded
// backoff against a tiny capacity) with dequeues while the enq-wait and
// capacity-gate injection points fire, and every recorded history must
// linearize. An EnqueueWait that gives up on its deadline enqueued nothing
// and is simply not recorded.
func TestEnqueueWaitLinearizableUnderChaos(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.EnqWait, 0.7)
	chaos.Set(chaos.CapacityGate, 0.5)
	chaos.Set(chaos.DelayDeq, 0.3)
	const (
		rounds  = 30
		threads = 3
		opsEach = 6
	)
	for round := 0; round < rounds; round++ {
		q := New(WithRingSize(2), WithCapacity(2), WithWaitBackoff(time.Microsecond, 10*time.Microsecond))
		rec := linearize.NewRecorder(threads)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := q.NewHandle()
				defer h.Release()
				rng := xrand.New(uint64(round)*1000 + uint64(th) + 1)
				<-start
				for i := 0; i < opsEach; i++ {
					if rng.Uint64()%2 == 0 {
						v := uint64(th)<<32 | uint64(i) + 1
						ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
						inv := rec.Now()
						err := h.EnqueueWait(ctx, v)
						ret := rec.Now()
						cancel()
						if err == nil {
							rec.Append(th, linearize.Op{
								Kind: linearize.Enq, Value: v,
								Invoke: inv, Return: ret,
							})
						}
					} else {
						inv := rec.Now()
						v, ok := h.Dequeue()
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
			t.Fatalf("round %d: non-linearizable EnqueueWait history under chaos:\n%v", round, hist)
		}
	}
	if chaos.Fired(chaos.EnqWait) == 0 {
		t.Fatal("enq-wait injection point never fired; scenario is vacuous")
	}
}

// soakSeconds returns the soak duration: LCRQ_SOAK_SECONDS when set (the CI
// soak job sets it), a few seconds otherwise so the test stays meaningful
// in a plain -tags=chaos run.
func soakSeconds() time.Duration {
	if s := os.Getenv("LCRQ_SOAK_SECONDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 2 * time.Second
}

// TestSoak is the timed robustness soak the CI chaos job runs with -race:
// a bounded queue with a watchdog, every fault-injection point armed,
// blocking producers, one consumer that repeatedly stalls mid-traffic while
// holding a handle (and with it, two rings in its hazard slots), and one
// handle that is leaked entirely. Throughout, LiveRings must respect the ring budget.
// Once producers and consumer have stopped (no enqueue in flight), accepted
// − consumed must be at most the capacity and equal the item account
// exactly; while they run, the account may read above the capacity by
// not-yet-refunded reservations (see Metrics.Items). Afterwards,
// conservation must hold (every accepted item consumed exactly once,
// per-producer FIFO).
func TestSoak(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.EnableAll(0.02)
	const (
		producers = 3
		capacity  = 128
	)
	q := New(
		WithRingSize(8), // constant segment churn
		WithCapacity(capacity),
		WithWatchdog(5*time.Millisecond),
		WithWaitBackoff(time.Microsecond, 100*time.Microsecond),
	)
	maxRings := int64(q.Metrics().MaxRings)
	if maxRings <= 0 {
		t.Fatal("bounded queue has no derived ring budget")
	}

	stop := make(chan struct{})
	var accepted [producers]atomic.Uint64
	var wg sync.WaitGroup

	// Blocking producers: EnqueueWait against the capacity.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := uint64(0); ; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				err := h.EnqueueWait(ctx, uint64(p)<<32|i+1)
				cancel()
				switch {
				case err == nil:
					accepted[p].Add(1)
				case errors.Is(err, ErrClosed):
					return
				default:
					i-- // deadline: retry the same value
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(p)
	}

	// A stalling consumer: drains briskly, then parks holding its handle —
	// the stalled-reclaimer hazard the ring budget must survive. Its sticky
	// hazard slots keep at most two retired rings from the recycler.
	consumed := make([][]uint64, producers)
	var others int // consumed values no producer wrote (the leaked handle's)
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		h := q.NewHandle()
		defer h.Release()
		for park := 0; ; park++ {
			for i := 0; i < 512; i++ {
				if v, ok := h.Dequeue(); ok {
					if p := v >> 32; p < producers {
						consumed[p] = append(consumed[p], v&0xffffffff)
					} else {
						others++
					}
				}
			}
			select {
			case <-stop:
				// Final drain happens after producers stop, below.
				return
			default:
			}
			if park%4 == 3 {
				time.Sleep(10 * time.Millisecond) // the stall
			} else {
				runtime.Gosched()
			}
		}
	}()

	// A leaked handle, recovered (or not) by the finalizer mid-soak; the
	// soak only requires that it cannot wedge the queue.
	var leaked int
	func() {
		h := q.NewHandle()
		if h.Enqueue(^uint64(1)) {
			leaked = 1
		}
		// leak: no Release
	}()
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
				time.Sleep(50 * time.Millisecond)
			}
		}
	}()

	// Invariant sampler: the ring budget gauge must hold at every instant.
	// It counts reservations, so this pins the gauge; the chain's real
	// length is measured by internal/core's TestMaxRingsChainSoak.
	deadline := time.Now().Add(soakSeconds())
	var ringViolations int
	for time.Now().Before(deadline) {
		if q.Metrics().LiveRings > maxRings {
			ringViolations++
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	cwg.Wait()
	if ringViolations > 0 {
		t.Errorf("ring budget (%d) violated at %d sampled instants", maxRings, ringViolations)
	}
	// Quiescent: the item account must now be exact and within capacity.
	in := int64(leaked - others)
	for p := 0; p < producers; p++ {
		in += int64(accepted[p].Load()) - int64(len(consumed[p]))
	}
	if in > capacity {
		t.Errorf("%d accepted items not consumed, capacity %d", in, capacity)
	}
	if items := q.Metrics().Items; items != in {
		t.Errorf("quiescent item account = %d, want %d (accepted − consumed)", items, in)
	}

	// Conservation: close, drain the remainder, and match per-producer FIFO.
	q.Close()
	q.Drain(func(v uint64) {
		if p := v >> 32; p < producers {
			consumed[p] = append(consumed[p], v&0xffffffff)
		}
	})
	for p := 0; p < producers; p++ {
		if got, want := uint64(len(consumed[p])), accepted[p].Load(); got != want {
			t.Errorf("producer %d: accepted %d, consumed %d", p, want, got)
			continue
		}
		for i, v := range consumed[p] {
			if v != uint64(i)+1 {
				t.Fatalf("producer %d: FIFO broken at %d: got %d, want %d", p, i, v, i+1)
			}
		}
	}
	if h := q.Health(); h.Checks == 0 {
		t.Error("watchdog never completed a check during the soak")
	}
	t.Logf("soak done: rings≤%d, items≤%d, orphans=%d, rejects=%d, health=%+v",
		maxRings, capacity, q.Metrics().OrphanRecoveries,
		q.Metrics().CapacityRejects, q.Health())
}
