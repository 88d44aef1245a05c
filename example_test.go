package lcrq_test

import (
	"fmt"
	"sync"

	"lcrq"
)

// The basic lifecycle: construct, obtain a per-goroutine handle, move
// values, release.
func ExampleNew() {
	q := lcrq.New()
	h := q.NewHandle()
	defer h.Release()

	h.Enqueue(10)
	h.Enqueue(20)
	v, ok := h.Dequeue()
	fmt.Println(v, ok)
	v, ok = h.Dequeue()
	fmt.Println(v, ok)
	_, ok = h.Dequeue()
	fmt.Println(ok)
	// Output:
	// 10 true
	// 20 true
	// false
}

// Typed queues carry arbitrary Go values; pointers remain visible to the
// garbage collector.
func ExampleNewTyped() {
	type job struct{ name string }
	q := lcrq.NewTyped[job]()
	h := q.NewHandle()
	defer h.Release()

	h.Enqueue(job{name: "build"})
	h.Enqueue(job{name: "test"})
	for {
		j, ok := h.Dequeue()
		if !ok {
			break
		}
		fmt.Println(j.name)
	}
	// Output:
	// build
	// test
}

// Handles are per-goroutine; a typical fan-in uses one handle per worker.
func ExampleQueue_concurrent() {
	q := lcrq.New(lcrq.WithRingSize(1024))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < 100; i++ {
				h.Enqueue(uint64(w*100 + i))
			}
		}(w)
	}
	wg.Wait()

	sum := uint64(0)
	n := q.Drain(func(v uint64) { sum += v })
	fmt.Println(n, sum)
	// Output:
	// 400 79800
}

// Stats expose the per-operation instruction mix the paper reports in its
// Tables 2 and 3.
func ExampleHandle_Stats() {
	q := lcrq.New()
	h := q.NewHandle()
	defer h.Release()
	for i := uint64(0); i < 1000; i++ {
		h.Enqueue(i)
		h.Dequeue()
	}
	s := h.Stats()
	fmt.Printf("enqueues=%d dequeues=%d atomics/op=%.0f\n",
		s.Enqueues, s.Dequeues, s.AtomicsPerOp())
	// Output:
	// enqueues=1000 dequeues=1000 atomics/op=2
}
