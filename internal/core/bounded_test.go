package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCapacityBound verifies the exact item account: the queue accepts
// exactly Capacity items, rejects the next with EnqFull, and frees budget
// one-for-one as items are dequeued.
func TestCapacityBound(t *testing.T) {
	const cap = 10
	q := NewLCRQ(Config{Capacity: cap})
	h := q.NewHandle()
	defer h.Release()
	for i := 0; i < cap; i++ {
		if st := q.EnqueueStatus(h, uint64(i)+1); st != EnqOK {
			t.Fatalf("enqueue %d: status %v, want EnqOK", i, st)
		}
	}
	if got := q.Items(); got != cap {
		t.Fatalf("Items() = %d, want %d", got, cap)
	}
	if st := q.EnqueueStatus(h, 99); st != EnqFull {
		t.Fatalf("enqueue past capacity: status %v, want EnqFull", st)
	}
	if q.CapacityRejects() == 0 {
		t.Fatal("CapacityRejects did not count the rejection")
	}
	if v, ok := q.Dequeue(h); !ok || v != 1 {
		t.Fatalf("dequeue = %d,%v, want 1,true (FIFO preserved across rejection)", v, ok)
	}
	if st := q.EnqueueStatus(h, 100); st != EnqOK {
		t.Fatalf("enqueue after freeing one slot: status %v, want EnqOK", st)
	}
	// Drain and confirm the rejected values never entered the sequence.
	want := []uint64{2, 3, 4, 5, 6, 7, 8, 9, 10, 100}
	for i, w := range want {
		v, ok := q.Dequeue(h)
		if !ok || v != w {
			t.Fatalf("drain[%d] = %d,%v, want %d,true", i, v, ok, w)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("queue should be empty")
	}
	if got := q.Items(); got != 0 {
		t.Fatalf("Items() after drain = %d, want 0", got)
	}
}

// TestMaxRingsBound verifies the ring budget with a wholly stalled
// consumer: the chain stops growing at MaxRings and every enqueue past it
// is turned away before allocating, in both reclamation modes.
func TestMaxRingsBound(t *testing.T) {
	for _, mode := range reclamationModes {
		t.Run(mode.name, func(t *testing.T) {
			const maxRings = 3
			// R = 2: every third item needs a fresh ring, so the budget
			// binds almost immediately.
			q := NewLCRQ(Config{RingOrder: 1, MaxRings: maxRings, NoHazard: mode.noHazard})
			h := q.NewHandle()
			defer h.Release()
			accepted := 0
			for i := 0; i < 1024; i++ {
				if q.Enqueue(h, uint64(i)+1) {
					accepted++
				}
				if lr := q.LiveRings(); lr > maxRings {
					t.Fatalf("LiveRings = %d exceeds budget %d", lr, maxRings)
				}
			}
			if accepted == 1024 {
				t.Fatal("ring budget never rejected an enqueue")
			}
			if accepted < maxRings {
				t.Fatalf("accepted only %d items across %d rings", accepted, maxRings)
			}
			// The budgeted queue must still drain in FIFO order.
			for i := 0; i < accepted; i++ {
				v, ok := q.Dequeue(h)
				if !ok || v != uint64(i)+1 {
					t.Fatalf("drain[%d] = %d,%v, want %d,true", i, v, ok, i+1)
				}
			}
		})
	}
}

// TestMaxRingsBoundConcurrent hammers a tiny ring budget from several
// producers while a consumer drains slowly, asserting the chain never
// exceeds the budget at any sampled instant. Run with -race this also
// exercises the budget gate's synchronization.
func TestMaxRingsBoundConcurrent(t *testing.T) {
	const (
		maxRings  = 4
		producers = 4
		opsEach   = 5000
	)
	q := NewLCRQ(Config{RingOrder: 1, MaxRings: maxRings})
	var pwg sync.WaitGroup
	var violations atomic.Int64
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < opsEach; i++ {
				q.Enqueue(h, uint64(p)<<32|uint64(i)+1)
				if q.LiveRings() > maxRings {
					violations.Add(1)
				}
			}
		}(p)
	}
	// One deliberately slow consumer: the budget must hold regardless.
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		h := q.NewHandle()
		defer h.Release()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.Dequeue(h)
			runtime.Gosched()
		}
	}()
	// Sample the gauge from the outside as well while producers run.
	done := make(chan struct{})
	go func() { pwg.Wait(); close(done) }()
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
			if q.LiveRings() > maxRings {
				violations.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	cwg.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("ring budget violated %d times (LiveRings > %d)", n, maxRings)
	}
}

// TestCapacityBoundConcurrent verifies the firm in-flight bound under
// producer/consumer concurrency. Producers and a consumer run in rounds;
// between rounds no enqueue is in flight, so accepted − dequeued, as the
// test counts them, must be at most Capacity and equal Items() exactly.
// (Inside a round Items() may read above Capacity by the producers'
// not-yet-refunded reservations; see LCRQ.Items.) Per-producer FIFO order
// must survive the reject/retry churn, and the drained account must read 0.
func TestCapacityBoundConcurrent(t *testing.T) {
	const (
		cap       = 64
		producers = 4
		rounds    = 40
		tries     = 200 // enqueue attempts per producer per round
		polls     = 600 // dequeue attempts per round: below the offered load
	)
	q := NewLCRQ(Config{RingOrder: 2, Capacity: cap})
	ph := make([]*Handle, producers)
	for p := range ph {
		ph[p] = q.NewHandle()
		defer ph[p].Release()
	}
	ch := q.NewHandle()
	defer ch.Release()
	accepted := make([]uint64, producers) // producer p's next value is accepted[p]+1
	got := make([][]uint64, producers)
	var dequeued int64
	consume := func(v uint64) {
		got[v>>32] = append(got[v>>32], v&0xffffffff)
		dequeued++
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < tries; i++ {
					if q.EnqueueStatus(ph[p], uint64(p)<<32|accepted[p]+1) == EnqOK {
						accepted[p]++
					} else {
						runtime.Gosched()
					}
				}
			}(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < polls; i++ {
				if v, ok := q.Dequeue(ch); ok {
					consume(v)
				} else {
					runtime.Gosched()
				}
			}
		}()
		wg.Wait()
		var in int64
		for _, n := range accepted {
			in += int64(n)
		}
		in -= dequeued
		if in > cap {
			t.Fatalf("round %d: %d accepted items not dequeued, capacity %d", r, in, cap)
		}
		if items := q.Items(); items != in {
			t.Fatalf("round %d: quiescent Items() = %d, want %d (accepted − dequeued)", r, items, in)
		}
	}
	if q.CapacityRejects() == 0 {
		t.Fatal("the capacity gate never rejected; the bound was not exercised")
	}
	for v, ok := q.Dequeue(ch); ok; v, ok = q.Dequeue(ch) {
		consume(v)
	}
	if items := q.Items(); items != 0 {
		t.Fatalf("Items() after drain = %d, want 0", items)
	}
	for p := 0; p < producers; p++ {
		if uint64(len(got[p])) != accepted[p] {
			t.Fatalf("producer %d: %d items consumed, %d accepted", p, len(got[p]), accepted[p])
		}
		for i, v := range got[p] {
			if v != uint64(i)+1 {
				t.Fatalf("producer %d: FIFO broken at %d: got %d, want %d", p, i, v, i+1)
			}
		}
	}
}

// TestBoundedNormalization pins the Config bookkeeping: derived ring
// budgets, the MinMaxRings floor, and Bounded().
func TestBoundedNormalization(t *testing.T) {
	cfg := Config{RingOrder: 4, Capacity: 100}.normalized()
	// ⌈100/16⌉+1 = 8.
	if cfg.MaxRings != 8 {
		t.Fatalf("derived MaxRings = %d, want 8", cfg.MaxRings)
	}
	if got := (Config{MaxRings: 1}).normalized().MaxRings; got != MinMaxRings {
		t.Fatalf("MaxRings floor = %d, want %d", got, MinMaxRings)
	}
	// Bounded skips normalization, so it must agree with the normalized
	// Config on every budget shape normalization rewrites.
	for _, c := range []struct {
		cfg  Config
		want bool
	}{
		{Config{}, false},
		{Config{Capacity: 1}, true},
		{Config{MaxRings: 5}, true},
		{Config{MaxRings: 1}, true},
		{Config{Capacity: 100, MaxRings: 0}, true},
		{Config{Capacity: -1}, false},
		{Config{MaxRings: -3}, false},
		{Config{Capacity: -1, MaxRings: -1}, false},
		{Config{Capacity: -5, MaxRings: 4}, true},
		{Config{Capacity: 7, MaxRings: -2}, true},
	} {
		n := c.cfg.normalized()
		if got, norm := c.cfg.Bounded(), n.Capacity > 0 || n.MaxRings > 0; got != c.want || norm != c.want {
			t.Errorf("Capacity %d, MaxRings %d: Bounded() = %v, normalized answer %v, want %v",
				c.cfg.Capacity, c.cfg.MaxRings, got, norm, c.want)
		}
		if q := NewLCRQ(c.cfg); q.bounded != c.want {
			t.Errorf("Capacity %d, MaxRings %d: LCRQ.bounded = %v, want %v",
				c.cfg.Capacity, c.cfg.MaxRings, q.bounded, c.want)
		}
	}
}

// TestDetachedHandleRejected verifies the fail-fast guard: a detached
// core.NewHandle() — legitimate for standalone CRQ use — must not silently
// run unprotected operations on a hazard-mode LCRQ.
func TestDetachedHandleRejected(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		q := NewLCRQ(Config{})
		h := NewHandle()
		defer func() {
			if recover() == nil {
				t.Fatal("detached handle on a reclaiming LCRQ did not panic")
			}
		}()
		q.Enqueue(h, 1)
	})
	// GC mode has no reclamation record to forget, so detached handles are
	// legitimate there.
	t.Run("gc", func(t *testing.T) {
		q := NewLCRQ(Config{NoHazard: true})
		h := NewHandle()
		if !q.Enqueue(h, 1) {
			t.Fatal("detached handle must work on a GC-mode LCRQ")
		}
		if v, ok := q.Dequeue(h); !ok || v != 1 {
			t.Fatalf("dequeue = %d,%v, want 1,true", v, ok)
		}
	})
}

// TestOrphanHandleRecovery verifies the leak finalizer: a handle dropped
// without Release has its hazard record returned to the domain, so the
// record, and the two rings its sticky slots hold, are not lost forever.
// GC mode issues handles without a record, so only hazard mode has one to
// recover.
func TestOrphanHandleRecovery(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		q := NewLCRQ(Config{})
		func() {
			h := q.NewHandle()
			q.Enqueue(h, 1)
			q.Dequeue(h)
			// h leaks: no Release.
		}()
		deadline := time.Now().Add(5 * time.Second)
		for q.OrphanRecoveries() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("orphaned handle was never recovered by the finalizer")
			}
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
	})
}

// TestReleaseDisarmsRecovery verifies the orderly path: a properly Released
// handle must not be double-counted by the orphan finalizer.
func TestReleaseDisarmsRecovery(t *testing.T) {
	q := NewLCRQ(Config{})
	func() {
		h := q.NewHandle()
		q.Enqueue(h, 1)
		h.Release()
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := q.OrphanRecoveries(); n != 0 {
		t.Fatalf("released handle was recovered as an orphan (%d recoveries)", n)
	}
}
