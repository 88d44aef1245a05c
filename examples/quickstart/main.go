// Quickstart: the essential LCRQ API in one file.
//
//	go run ./examples/quickstart
//
// Demonstrates the raw uint64 queue with per-goroutine handles, the
// handle-free convenience methods, and the generic Typed facade.
package main

import (
	"fmt"
	"sync"

	"lcrq"
)

func main() {
	// ---- raw queue, explicit handles (the fast path) ----
	q := lcrq.New()

	var wg sync.WaitGroup
	const producers, perProducer = 4, 1000

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle() // one handle per goroutine
			defer h.Release()
			for i := 0; i < perProducer; i++ {
				h.Enqueue(uint64(p*perProducer + i))
			}
		}(p)
	}
	wg.Wait()

	var sum, count uint64
	h := q.NewHandle()
	for {
		v, ok := h.Dequeue()
		if !ok {
			break // queue empty
		}
		sum += v
		count++
	}
	h.Release()
	fmt.Printf("raw queue: drained %d items, sum %d\n", count, sum)

	// ---- convenience methods (pooled handles, casual use) ----
	q.Enqueue(7)
	if v, ok := q.Dequeue(); ok {
		fmt.Printf("convenience: got %d\n", v)
	}

	// ---- typed queue: arbitrary Go values, GC-safe ----
	type order struct {
		ID     int
		Symbol string
		Qty    int
	}
	book := lcrq.NewTyped[order]()
	th := book.NewHandle()
	defer th.Release()

	th.Enqueue(order{ID: 1, Symbol: "ACME", Qty: 100})
	th.Enqueue(order{ID: 2, Symbol: "GOPH", Qty: 250})
	for {
		o, ok := th.Dequeue()
		if !ok {
			break
		}
		fmt.Printf("typed queue: order %d %s x%d\n", o.ID, o.Symbol, o.Qty)
	}

	// ---- per-handle statistics (the paper's Tables 2-3 counters) ----
	sh := q.NewHandle()
	for i := uint64(0); i < 1000; i++ {
		sh.Enqueue(i)
		sh.Dequeue()
	}
	st := sh.Stats()
	sh.Release()
	fmt.Printf("stats: %d enq, %d deq, %.2f atomic ops per operation\n",
		st.Enqueues, st.Dequeues, st.AtomicsPerOp())
}
