package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCloseStopsEnqueuesAndDrains covers the core drain contract: values
// enqueued before Close come out in FIFO order afterwards, enqueues after
// Close fail, and the drained queue reports empty forever.
func TestCloseStopsEnqueuesAndDrains(t *testing.T) {
	for _, order := range []int{1, 3} {
		q := NewLCRQ(Config{RingOrder: order})
		h := q.NewHandle()
		defer h.Release()
		const n = 50 // spans many rings at order 1 (R=2)
		for i := uint64(0); i < n; i++ {
			if !q.Enqueue(h, i+1) {
				t.Fatalf("order %d: enqueue %d rejected before close", order, i)
			}
		}
		if q.Closed() {
			t.Fatalf("order %d: queue closed before Close", order)
		}
		q.Close(h)
		q.Close(h) // idempotent
		if !q.Closed() {
			t.Fatalf("order %d: Closed() false after Close", order)
		}
		if q.Enqueue(h, 999) {
			t.Fatalf("order %d: enqueue accepted after close", order)
		}
		for i := uint64(0); i < n; i++ {
			v, ok := q.Dequeue(h)
			if !ok || v != i+1 {
				t.Fatalf("order %d: drain[%d] = (%d,%v), want (%d,true)", order, i, v, ok, i+1)
			}
		}
		if v, ok := q.Dequeue(h); ok {
			t.Fatalf("order %d: drained queue returned %d", order, v)
		}
	}
}

// TestCloseConcurrent closes the queue while producers are appending across
// tiny rings and checks conservation: every accepted enqueue is dequeued
// exactly once, in per-producer FIFO order, and nothing is invented.
func TestCloseConcurrent(t *testing.T) {
	const (
		producers = 4
		perProd   = 512
		closeAt   = 64 // accepted enqueues before the plug is pulled
	)
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
			for i := 0; i < perProd; i++ {
				if !q.Enqueue(h, uint64(p)<<32|uint64(i)+1) {
					return // queue closed
				}
				accepted[p]++
				total.Add(1)
			}
		}(p)
	}
	closer := q.NewHandle()
	defer closer.Release()
	close(start)
	// Wait until producers have made progress, then pull the plug. They
	// only stop on close, so total always reaches closeAt.
	for total.Load() < closeAt {
		runtime.Gosched()
	}
	q.Close(closer)
	wg.Wait()
	// Drain everything left and verify conservation per producer.
	consumed := map[int][]uint64{}
	h := q.NewHandle()
	defer h.Release()
	for {
		v, ok := q.Dequeue(h)
		if !ok {
			break
		}
		p := int(v >> 32)
		consumed[p] = append(consumed[p], v&0xffffffff)
	}
	if q.Enqueue(h, 1) {
		t.Fatal("enqueue accepted after close and drain")
	}
	for p := 0; p < producers; p++ {
		if uint64(len(consumed[p])) != accepted[p] {
			t.Fatalf("producer %d: accepted %d items, consumed %d", p, accepted[p], len(consumed[p]))
		}
		for i, v := range consumed[p] {
			if v != uint64(i)+1 {
				t.Fatalf("producer %d: consumed[%d] = %d, want %d (FIFO violation or duplicate)", p, i, v, i+1)
			}
		}
	}
}

// TestHandleDoubleReleasePanics is the regression test for the double
// release guard: the second Release must panic loudly instead of returning
// the same reclamation record to the domain twice.
func TestHandleDoubleReleasePanics(t *testing.T) {
	q := NewLCRQ(Config{})
	h := q.NewHandle()
	h.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Release did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "released twice") {
			t.Fatalf("panic %v lacks a clear double-release message", r)
		}
	}()
	h.Release()
}
