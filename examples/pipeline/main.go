// Pipeline: a three-stage parse/enrich/aggregate pipeline built on typed
// LCRQ queues, with a Go-channel version of the same pipeline for
// comparison.
//
//	go run ./examples/pipeline
//
// Stages are decoupled by MPMC queues; any number of workers serve each
// stage. Because dequeue is nonblocking (it returns EMPTY instead of
// parking the thread), workers poll their input with exponential backoff —
// the usual consumption pattern for nonblocking queues (pure spinning would
// starve producers on machines with few cores). The aggregator counts
// records and flips the done flag once everything has arrived, so no record
// can be lost.
package main

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcrq"
)

type raw struct {
	id int
}

type parsed struct {
	tick string
	val  int
}

type result struct {
	tick  string
	total int
}

const (
	nRecords   = 200_000
	stage1W    = 3 // parsers
	stage2W    = 3 // enrichers
	tickModulo = 8
)

// backoff yields, then sleeps, as consecutive empty polls accumulate.
func backoff(empties *int) {
	*empties++
	switch {
	case *empties < 8:
		runtime.Gosched()
	default:
		time.Sleep(20 * time.Microsecond)
	}
}

func main() {
	start := time.Now()
	totals := runLCRQPipeline()
	lcrqTime := time.Since(start)

	start = time.Now()
	chTotals := runChannelPipeline()
	chTime := time.Since(start)

	if !maps.Equal(totals, chTotals) {
		fmt.Fprintf(os.Stderr, "MISMATCH: lcrq=%v chan=%v\n", totals, chTotals)
		os.Exit(1)
	}
	fmt.Printf("processed %d records through 3 stages (GOMAXPROCS=%d)\n",
		nRecords, runtime.GOMAXPROCS(0))
	fmt.Printf("  lcrq pipeline:    %v\n", lcrqTime)
	fmt.Printf("  channel pipeline: %v\n", chTime)
	fmt.Printf("  aggregates agree across %d ticker buckets\n", len(totals))
}

func runLCRQPipeline() map[string]int {
	qRaw := lcrq.NewTyped[raw]()
	qParsed := lcrq.NewTyped[parsed]()
	qResult := lcrq.NewTyped[result]()

	var done atomic.Bool // set once the aggregator has seen every record
	var workers sync.WaitGroup

	// Stage 0: producer.
	workers.Add(1)
	go func() {
		defer workers.Done()
		h := qRaw.NewHandle()
		defer h.Release()
		for i := 0; i < nRecords; i++ {
			h.Enqueue(raw{id: i})
		}
	}()

	// Stage 1: parse.
	for w := 0; w < stage1W; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			in, out := qRaw.NewHandle(), qParsed.NewHandle()
			defer in.Release()
			defer out.Release()
			empties := 0
			for !done.Load() {
				r, ok := in.Dequeue()
				if !ok {
					backoff(&empties)
					continue
				}
				empties = 0
				out.Enqueue(parsed{tick: fmt.Sprintf("T%d", r.id%tickModulo), val: r.id % 100})
			}
		}()
	}

	// Stage 2: enrich.
	for w := 0; w < stage2W; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			in, out := qParsed.NewHandle(), qResult.NewHandle()
			defer in.Release()
			defer out.Release()
			empties := 0
			for !done.Load() {
				p, ok := in.Dequeue()
				if !ok {
					backoff(&empties)
					continue
				}
				empties = 0
				out.Enqueue(result{tick: p.tick, total: p.val * 2})
			}
		}()
	}

	// Stage 3: aggregate. Counting to nRecords is the termination signal.
	totals := map[string]int{}
	agg := qResult.NewHandle()
	empties := 0
	for seen := 0; seen < nRecords; {
		r, ok := agg.Dequeue()
		if !ok {
			backoff(&empties)
			continue
		}
		empties = 0
		totals[r.tick] += r.total
		seen++
	}
	agg.Release()
	done.Store(true)
	workers.Wait()
	return totals
}

func runChannelPipeline() map[string]int {
	chRaw := make(chan raw, 4096)
	chParsed := make(chan parsed, 4096)
	chResult := make(chan result, 4096)

	go func() {
		for i := 0; i < nRecords; i++ {
			chRaw <- raw{id: i}
		}
		close(chRaw)
	}()

	var s1 sync.WaitGroup
	for w := 0; w < stage1W; w++ {
		s1.Add(1)
		go func() {
			defer s1.Done()
			for r := range chRaw {
				chParsed <- parsed{tick: fmt.Sprintf("T%d", r.id%tickModulo), val: r.id % 100}
			}
		}()
	}
	go func() { s1.Wait(); close(chParsed) }()

	var s2 sync.WaitGroup
	for w := 0; w < stage2W; w++ {
		s2.Add(1)
		go func() {
			defer s2.Done()
			for p := range chParsed {
				chResult <- result{tick: p.tick, total: p.val * 2}
			}
		}()
	}
	go func() { s2.Wait(); close(chResult) }()

	totals := map[string]int{}
	for r := range chResult {
		totals[r.tick] += r.total
	}
	return totals
}
