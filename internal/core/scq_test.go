package core

// Tests of the portable SCQ ring engine (scq.go): the cycle-tagged entry
// protocol across ring-size and cycle boundaries, the fullness → close and
// threshold → EMPTY contracts the LCRQ list layer relies on, and the
// engine's behaviour composed under the full list layer.

import (
	"runtime"
	"sync"
	"testing"
)

func scqCfg(order int) Config {
	c := smallCfg(order)
	c.Ring = RingSCQ
	return c
}

func TestRingAutoSelection(t *testing.T) {
	got := Config{}.normalized().Ring
	if runtime.GOARCH == "amd64" {
		if got != RingCAS2 {
			t.Fatalf("RingAuto on amd64 = %v, want cas2", got)
		}
	} else if got != RingSCQ {
		t.Fatalf("RingAuto on %s = %v, want scq", runtime.GOARCH, got)
	}
	if forced := (Config{Ring: RingSCQ}).normalized().Ring; forced != RingSCQ {
		t.Fatalf("explicit RingSCQ not preserved: %v", forced)
	}
	q := NewCRQ(scqCfg(2))
	if !q.Portable() {
		t.Fatal("RingSCQ config did not build the SCQ engine")
	}
}

func TestSCQRemapBijective(t *testing.T) {
	for order := 1; order <= 8; order++ {
		s := newSCQRing(order)
		slots := uint64(2) << order
		seen := make(map[uint64]bool, slots)
		for i := uint64(0); i < slots; i++ {
			j := s.remap.slot(i)
			if j > s.remap.mask {
				t.Fatalf("order %d: remap(%d) = %d out of range", order, i, j)
			}
			if seen[j] {
				t.Fatalf("order %d: remap collision at %d", order, i)
			}
			seen[j] = true
		}
		// remap must be cycle-invariant: index i and i+2n share a slot.
		if s.remap.slot(3) != s.remap.slot(3+slots) {
			t.Fatalf("order %d: remap not periodic in the ring size", order)
		}
	}
}

// TestSCQCycleWraparound drives a tiny ring through many full cycles, with
// the resident population straddling ring-size boundaries, so head/tail
// indices cross the cycle-tag boundary while entries still hold live
// indices from the previous lap. FIFO order must survive every crossing.
func TestSCQCycleWraparound(t *testing.T) {
	for _, order := range []int{1, 2} {
		q := NewCRQ(scqCfg(order))
		h := NewHandle()
		n := uint64(1) << order

		next := uint64(1) // value to enqueue next (Bottom-safe, nonzero)
		expect := uint64(1)
		// Keep the queue at a resident population of n−1..n so every lap
		// reuses entries that were occupied in the previous cycle.
		for i := 0; i < 64*int(n); i++ {
			for q.tail.Load()-q.head.Load() < n {
				if !q.Enqueue(h, next) {
					t.Fatalf("order %d: ring closed unexpectedly at %d", order, next)
				}
				next++
			}
			v, ok := q.Dequeue(h)
			if !ok {
				t.Fatalf("order %d: spurious EMPTY at expect=%d", order, expect)
			}
			if v != expect {
				t.Fatalf("order %d: FIFO violated: got %d want %d", order, v, expect)
			}
			expect++
		}
		// Drain and verify the tail of the sequence.
		for {
			v, ok := q.Dequeue(h)
			if !ok {
				break
			}
			if v != expect {
				t.Fatalf("order %d: drain FIFO violated: got %d want %d", order, v, expect)
			}
			expect++
		}
		if expect != next {
			t.Fatalf("order %d: lost items: drained to %d, enqueued to %d", order, expect, next)
		}
		if q.Closed() {
			t.Fatalf("order %d: ring closed during in-capacity cycling", order)
		}
	}
}

// TestSCQFullClosesRing: the (n+1)-th resident enqueue finds the free-index
// queue empty and must close the ring — the CRQ full contract the list
// layer's append protocol depends on.
func TestSCQFullClosesRing(t *testing.T) {
	q := NewCRQ(scqCfg(2)) // n = 4 data slots
	h := NewHandle()
	for i := uint64(1); i <= 4; i++ {
		if !q.Enqueue(h, i) {
			t.Fatalf("enqueue %d failed below capacity", i)
		}
	}
	if q.Enqueue(h, 5) {
		t.Fatal("enqueue beyond capacity succeeded")
	}
	if !q.Closed() {
		t.Fatal("full ring not closed")
	}
	if h.C.FreeEmpty == 0 {
		t.Fatal("FreeEmpty counter not incremented")
	}
	// The resident items stay dequeueable after the close.
	for i := uint64(1); i <= 4; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i {
			t.Fatalf("drain after close: got (%d,%v) want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("drained closed ring still returned a value")
	}
}

// TestSCQThresholdRecovery: empty polls drive the threshold negative (the
// fast EMPTY path), and the next deposit must re-arm it so the item is
// reachable.
func TestSCQThresholdRecovery(t *testing.T) {
	q := NewCRQ(scqCfg(2))
	h := NewHandle()
	for i := 0; i < 50; i++ {
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("empty ring returned a value")
		}
	}
	if q.scq.aqThr.Load() >= 0 {
		t.Fatalf("threshold not exhausted by empty polls: %d", q.scq.aqThr.Load())
	}
	if !q.Enqueue(h, 42) {
		t.Fatal("enqueue failed")
	}
	if q.scq.aqThr.Load() != q.scq.thrReset {
		t.Fatalf("threshold not re-armed by deposit: %d want %d", q.scq.aqThr.Load(), q.scq.thrReset)
	}
	if v, ok := q.Dequeue(h); !ok || v != 42 {
		t.Fatalf("deposited item unreachable: (%d,%v)", v, ok)
	}
}

// TestSCQSeedMatchesCAS2Contract: seed + reset are what the list layer's
// recycler drives; the seeded value must be the ring's only element and sit
// at index 0 (the stamp-trace key newRing uses).
func TestSCQSeedAndReset(t *testing.T) {
	q := NewCRQ(scqCfg(2))
	h := NewHandle()
	q.Enqueue(h, 1)
	q.Dequeue(h)
	q.closeRing(h, EvRingClose)

	q.reset()
	if q.Closed() || q.head.Load() != 0 || q.tail.Load() != 0 {
		t.Fatal("reset did not restore the initial state")
	}
	q.seed(99)
	if v, ok := q.Dequeue(h); !ok || v != 99 {
		t.Fatalf("seeded value: got (%d,%v) want (99,true)", v, ok)
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("seeded ring held more than one element")
	}
	// Seeding must leave all n free slots recoverable: fill to capacity.
	for i := uint64(1); i <= 4; i++ {
		if !q.Enqueue(h, i) {
			t.Fatalf("slot %d unavailable after seed", i)
		}
	}
}

// TestSCQBatchOps exercises the batch entry points' prefix-acceptance and
// linearizable-zero contracts on the SCQ engine.
func TestSCQBatchOps(t *testing.T) {
	q := NewCRQ(scqCfg(2))
	h := NewHandle()
	n, closed := q.EnqueueBatch(h, []uint64{1, 2, 3})
	if n != 3 || closed {
		t.Fatalf("EnqueueBatch = (%d,%v), want (3,false)", n, closed)
	}
	out := make([]uint64, 8)
	if got := q.DequeueBatch(h, out); got != 3 {
		t.Fatalf("DequeueBatch = %d, want 3", got)
	}
	for i, want := range []uint64{1, 2, 3} {
		if out[i] != want {
			t.Fatalf("batch FIFO violated at %d: got %d want %d", i, out[i], want)
		}
	}
	if got := q.DequeueBatch(h, out); got != 0 {
		t.Fatalf("empty DequeueBatch = %d, want 0", got)
	}
	// Overfull batch: prefix accepted, ring closed.
	n, closed = q.EnqueueBatch(h, []uint64{1, 2, 3, 4, 5, 6})
	if n != 4 || !closed {
		t.Fatalf("overfull EnqueueBatch = (%d,%v), want (4,true)", n, closed)
	}
}

// TestSCQListSpill: under the LCRQ list layer a full SCQ ring must spill
// into a fresh ring with nothing lost, reusing the tantrum/append protocol.
func TestSCQListSpill(t *testing.T) {
	cfg := scqCfg(1) // n = 2: every third enqueue spills
	q := NewLCRQ(cfg)
	h := q.NewHandle()
	defer h.Release()
	const total = 100
	for i := uint64(1); i <= total; i++ {
		if !q.Enqueue(h, i) {
			t.Fatalf("list enqueue %d failed", i)
		}
	}
	for i := uint64(1); i <= total; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i {
			t.Fatalf("list dequeue: got (%d,%v) want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("drained list returned a value")
	}
	if h.C.Appends == 0 {
		t.Fatal("no ring was ever appended; spill untested")
	}
}

// TestSCQConcurrentNoLossNoDup: MPMC through the list layer with tiny SCQ
// rings; every produced value must be consumed exactly once.
func TestSCQConcurrentNoLossNoDup(t *testing.T) {
	cfg := scqCfg(2)
	q := NewLCRQ(cfg)
	const (
		producers = 4
		consumers = 4
		perProd   = 2000
	)
	var wg sync.WaitGroup
	results := make([][]uint64, consumers)
	var done sync.WaitGroup
	done.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer done.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < perProd; i++ {
				v := uint64(p)<<32 | uint64(i+1)
				for !q.Enqueue(h, v) {
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for {
				v, ok := q.Dequeue(h)
				if ok {
					results[c] = append(results[c], v)
					continue
				}
				select {
				case <-stop:
					// Final sweep: a value found here counts like any other.
					v, ok := q.Dequeue(h)
					if !ok {
						return
					}
					results[c] = append(results[c], v)
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[uint64]bool, producers*perProd)
	lastPerProd := make(map[uint64]uint64)
	for c := range results {
		for _, v := range results[c] {
			if seen[v] {
				t.Fatalf("duplicate value %#x", v)
			}
			seen[v] = true
			_ = lastPerProd
		}
	}
	if len(seen) != producers*perProd {
		t.Fatalf("lost items: consumed %d of %d", len(seen), producers*perProd)
	}
	// Per-producer FIFO within each consumer's local stream.
	for c := range results {
		last := make(map[uint64]uint64)
		for _, v := range results[c] {
			p, seq := v>>32, v&0xFFFFFFFF
			if seq <= last[p] {
				t.Fatalf("per-producer order violated in consumer %d: producer %d seq %d after %d", c, p, seq, last[p])
			}
			last[p] = seq
		}
	}
}
