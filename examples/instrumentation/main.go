// Instrumentation: watching the LCRQ mechanics through the Stats API.
//
//	go run ./examples/instrumentation
//
// Runs a contended workload against LCRQ and prints the per-operation
// instruction mix — a live miniature of the paper's Table 2. The LCRQ-CAS
// ablation (fetch-and-add emulated with a CAS loop), which shows where the
// CAS-retry waste the paper identifies comes from, is the harness's
// lcrq-cas queue:
//
//	go run ./cmd/qbench -queues lcrq,lcrq-cas -threads 1,2,4,8
//
// Also demonstrates ring churn accounting with a deliberately tiny ring.
package main

import (
	"fmt"
	"sync"

	"lcrq"
)

// run drives the queue with bursts of 16 enqueues followed by 16 dequeues
// per worker, so the queue actually holds items (plain enqueue/dequeue
// pairs rarely grow the queue beyond a handful of entries).
func run(name string, q *lcrq.Queue, workers, pairs int) lcrq.Stats {
	const burst = 16
	var wg sync.WaitGroup
	statsCh := make(chan lcrq.Stats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < pairs; i += burst {
				for j := 0; j < burst; j++ {
					h.Enqueue(uint64(w*pairs+i+j) + 1)
				}
				for j := 0; j < burst; j++ {
					h.Dequeue()
				}
			}
			statsCh <- h.Stats()
		}(w)
	}
	wg.Wait()
	close(statsCh)
	var total lcrq.Stats
	for s := range statsCh {
		total.Add(&s)
	}
	fmt.Printf("%-12s  %8d ops  %.2f atomics/op  F&A=%d  CAS=%d (%.1f%% failed)  CAS2=%d (%.1f%% failed)\n",
		name, total.Ops(), total.AtomicsPerOp(),
		total.FAA,
		total.CAS, pct(total.CASFail, total.CAS),
		total.CAS2, pct(total.CAS2Fail, total.CAS2))
	return total
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func main() {
	const workers, pairs = 8, 50_000

	fmt.Println("instruction mix under contention (compare with Table 2 of the paper):")
	run("lcrq", lcrq.New(), workers, pairs)

	fmt.Println("\nring churn with a deliberately tiny ring (R=4):")
	tiny := lcrq.New(lcrq.WithRingSize(4))
	s := run("lcrq R=4", tiny, workers, pairs)
	fmt.Printf("  ring segments closed: %d, appended: %d, recycled: %d (%.1f%% reuse)\n",
		s.Closes, s.Appends, s.Recycled,
		pct(s.Recycled, s.Appends))
	fmt.Println("\nwith the default 4096-cell ring the same workload closes no rings:")
	s = run("lcrq R=4096", lcrq.New(), workers, pairs)
	fmt.Printf("  ring segments closed: %d, appended: %d\n", s.Closes, s.Appends)
}
