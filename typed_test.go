package lcrq

import (
	"sync"
	"testing"

	"lcrq/internal/instrument"
)

// freeCalls is the part of a free-list handle's counters the stash is meant
// to keep still.
type freeCalls struct{ enq, deq, batchEnq, batchDeq uint64 }

func freeCallsOf[T any](h *TypedHandle[T]) freeCalls {
	c := &h.free.C
	return freeCalls{c.Enqueues, c.Dequeues, c.BatchEnqueues, c.BatchDequeues}
}

// checkArenaConserved drains q's free list and fails unless every arena
// slot index comes out exactly once: no slot lost, none handed out twice.
// Every handle must have been released and the main queue drained, so that
// all indices are back on the free list.
func checkArenaConserved[T any](t testing.TB, q *Typed[T]) {
	t.Helper()
	n := len(*q.arr.Load()) * chunkSize
	seen := make([]bool, n)
	fh := q.free.NewHandle()
	defer fh.Release()
	count := 0
	for {
		idx, ok := q.free.Dequeue(fh)
		if !ok {
			break
		}
		if idx >= uint64(n) {
			t.Fatalf("free list holds index %d outside the %d-slot arena", idx, n)
		}
		if seen[idx] {
			t.Fatalf("slot %d is on the free list twice", idx)
		}
		seen[idx] = true
		count++
	}
	if count != n {
		t.Fatalf("free list holds %d of the arena's %d slots", count, n)
	}
}

// TestTypedStashSteadyState: once warm, a closed enqueue/dequeue loop on one
// handle recycles its slots through the stash and never calls the shared
// free list.
func TestTypedStashSteadyState(t *testing.T) {
	q := NewTyped[int]()
	h := q.NewHandle()
	defer h.Release()
	for i := 0; i < 100; i++ { // warm-up: grows the arena once
		h.Enqueue(i)
		h.Dequeue()
	}
	before := freeCallsOf(h)
	for i := 0; i < 10000; i++ {
		h.Enqueue(i)
		if v, ok := h.Dequeue(); !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if after := freeCallsOf(h); after != before {
		t.Fatalf("free-list counters moved in the steady state: %+v -> %+v", before, after)
	}
}

// TestTypedGrowBatchesFreeList: one arena growth hands its chunk out in a
// handful of free-list calls, not one per slot.
func TestTypedGrowBatchesFreeList(t *testing.T) {
	q := NewTyped[int]()
	h := q.NewHandle()
	defer h.Release()
	h.Enqueue(0) // empty stash, dry free list: grows the arena
	if got := len(*q.arr.Load()); got != 1 {
		t.Fatalf("arena has %d chunks, want 1", got)
	}
	c := freeCallsOf(h)
	// One batch dequeue found the free list dry; one batch enqueue took the
	// chunk's slots beyond the taken one and the refilled stash half.
	if c.batchDeq != 1 || c.batchEnq != 1 {
		t.Fatalf("grow made %d batch dequeues and %d batch enqueues, want 1 and 1", c.batchDeq, c.batchEnq)
	}
	if want := uint64(chunkSize - 1 - stashSize/2); c.enq != want {
		t.Fatalf("free list received %d slot indices, want %d in the one batch", c.enq, want)
	}
	if c.deq != 1 {
		t.Fatalf("free list served %d dequeues, want the one empty batch", c.deq)
	}
	for i := 1; i <= stashSize/2; i++ { // served from the refilled stash
		h.Enqueue(i)
	}
	if after := freeCallsOf(h); after != c {
		t.Fatalf("stash-served enqueues touched the free list: %+v -> %+v", c, after)
	}
}

// TestTypedBatchFreeListCalls: in a producer/consumer split, a batch longer
// than the stash makes one free-list call for the part the stash cannot
// cover, not one per half stash.
func TestTypedBatchFreeListCalls(t *testing.T) {
	const k, rounds = 4 * stashSize, 6
	q := NewTyped[int]()
	prod, cons := q.NewHandle(), q.NewHandle()
	defer prod.Release()
	defer cons.Release()
	vs, out := make([]int, k), make([]int, k)
	for i := range vs {
		vs[i] = i
	}
	split := func() {
		if n, err := prod.EnqueueBatch(vs); n != k || err != nil {
			t.Fatalf("EnqueueBatch = (%d, %v), want (%d, nil)", n, err, k)
		}
		if n := cons.DequeueBatch(out); n != k || out[0] != 0 || out[k-1] != k-1 {
			t.Fatalf("DequeueBatch = %d (%d..%d), want %d (0..%d)", n, out[0], out[k-1], k, k-1)
		}
	}
	// Warm-up: grows the arena, empties the producer's stash and fills the
	// consumer's.
	split()
	split()
	p0, c0 := freeCallsOf(prod), freeCallsOf(cons)
	for range rounds {
		split()
	}
	p1, c1 := freeCallsOf(prod), freeCallsOf(cons)
	if p1.batchDeq-p0.batchDeq != rounds || p1.batchEnq != p0.batchEnq {
		t.Fatalf("producer: %d batch dequeues, %d batch enqueues over %d rounds, want %d and 0",
			p1.batchDeq-p0.batchDeq, p1.batchEnq-p0.batchEnq, rounds, rounds)
	}
	if c1.batchEnq-c0.batchEnq != rounds || c1.batchDeq != c0.batchDeq {
		t.Fatalf("consumer: %d batch enqueues, %d batch dequeues over %d rounds, want %d and 0",
			c1.batchEnq-c0.batchEnq, c1.batchDeq-c0.batchDeq, rounds, rounds)
	}
}

// TestTypedStashConservation runs a producer-only and a consumer-only handle
// through bursts that span several arena chunks, so the producer refills
// from the free list and the consumer spills to it, and then checks that
// every arena slot is accounted for exactly once.
func TestTypedStashConservation(t *testing.T) {
	q := NewTyped[int](WithRingSize(256))
	prod, cons := q.NewHandle(), q.NewHandle()
	next, want := 0, 0
	for _, burst := range []int{chunkSize / 2, 3 * chunkSize / 2, 3 * chunkSize, chunkSize + 7} {
		for i := 0; i < burst; i++ {
			prod.Enqueue(next)
			next++
		}
		for i := 0; i < burst; i++ {
			v, ok := cons.Dequeue()
			if !ok || v != want {
				t.Fatalf("got (%d,%v), want %d", v, ok, want)
			}
			want++
		}
	}
	if got := len(*q.arr.Load()); got < 3 {
		t.Fatalf("arena has %d chunks, want several", got)
	}
	if freeCallsOf(prod).batchDeq < 2 || freeCallsOf(cons).batchEnq < 2 {
		t.Fatal("bursts did not exercise the stash refill and spill")
	}
	prod.Release()
	cons.Release()
	checkArenaConserved(t, q)
}

// TestTypedStashProducerConsumer is the concurrent split: one goroutine only
// enqueues, one only dequeues, so slot indices flow one way, spilled by the
// consumer and refilled by the producer. Run it under -race.
func TestTypedStashProducerConsumer(t *testing.T) {
	q := NewTyped[[2]int](WithRingSize(64))
	const n = 20000
	var wg sync.WaitGroup
	var pc, cc instrument.Counters
	wg.Add(2)
	go func() {
		defer wg.Done()
		h := q.NewHandle()
		for i := 0; i < n; i++ {
			h.Enqueue([2]int{i, -i})
		}
		pc = h.free.C
		h.Release()
	}()
	go func() {
		defer wg.Done()
		h := q.NewHandle()
		for want := 0; want < n; {
			v, ok := h.Dequeue()
			if !ok {
				continue
			}
			if v != [2]int{want, -want} {
				t.Errorf("got %v, want %v", v, [2]int{want, -want})
				break
			}
			want++
		}
		cc = h.free.C
		h.Release()
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if pc.BatchDequeues == 0 || cc.BatchEnqueues == 0 {
		t.Fatalf("producer refills %d, consumer spills %d: want both > 0", pc.BatchDequeues, cc.BatchEnqueues)
	}
	checkArenaConserved(t, q)
}

// TestTypedFreeListUntelemetered: the free list is a bare LCRQ with the
// main queue's ring size and ring protocol, unbounded, untraced and with no
// telemetry tap (Typed.Metrics reports the main queue only), while the main
// queue keeps the bound and the telemetry it was asked for.
func TestTypedFreeListUntelemetered(t *testing.T) {
	q := NewTyped[int](WithTelemetry(), WithTracing(16), WithCapacity(8), WithRingSize(64), WithPortableRing())
	h := q.NewHandle()
	defer h.Release()
	if q.main.tel == nil || h.main.tel == nil {
		t.Fatal("the main queue lost its telemetry")
	}
	main, free := q.main.q.Config(), q.free.Config()
	if !main.Bounded() {
		t.Fatal("the main queue lost its capacity bound")
	}
	if free.Bounded() || free.TraceSampleN != 0 || free.Telemetry || free.Tap != nil || free.TraceTap != nil {
		t.Fatalf("the free list is bounded or observed: %+v", free)
	}
	if free.RingOrder != main.RingOrder || free.Ring != main.Ring {
		t.Fatalf("free list ring (order %d, %v), main queue ring (order %d, %v)",
			free.RingOrder, free.Ring, main.RingOrder, main.Ring)
	}
}
