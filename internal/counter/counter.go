// Package counter reproduces Figure 1 of the LCRQ paper: the time it takes
// a thread to increment one contended counter using fetch-and-add versus a
// CAS loop, together with the number of CAS attempts each increment costs.
// This microbenchmark is the paper's motivating observation — F&A always
// succeeds, so contention costs only coherence traffic, while a CAS loop
// additionally wastes every failed attempt.
package counter

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcrq/internal/affinity"
	"lcrq/internal/pad"
)

// Mode selects the increment implementation.
type Mode int

const (
	// FAA increments with one fetch-and-add instruction.
	FAA Mode = iota
	// CASLoop increments with a load + CAS retry loop.
	CASLoop
)

// String returns the figure's series label.
func (m Mode) String() string {
	if m == FAA {
		return "F&A"
	}
	return "CAS loop"
}

// Result is one point of Figure 1.
type Result struct {
	Mode        Mode
	Threads     int
	Increments  int     // per thread
	NsPerInc    float64 // left axis: time per increment
	CASPerInc   float64 // right axis: CAS attempts per increment (CASLoop only)
	TotalCAS    uint64
	Pinned      bool
	ElapsedNano int64
}

func (r Result) String() string {
	s := fmt.Sprintf("%s: %d threads, %.1f ns/inc", r.Mode, r.Threads, r.NsPerInc)
	if r.Mode == CASLoop {
		s += fmt.Sprintf(", %.2f CAS/inc", r.CASPerInc)
	}
	return s
}

//lcrq:padded
type sharedCounter struct {
	_ pad.Line
	v atomic.Uint64
	_ pad.Line
}

// Run measures one configuration: threads workers each performing incs
// increments of one shared counter.
func Run(mode Mode, threads, incs int, pin bool) Result {
	if threads < 1 || incs < 1 {
		panic("counter: threads and incs must be positive")
	}
	topo := affinity.Detect()
	place := topo.SingleCluster(threads)

	var ctr sharedCounter
	var ready, start atomic.Int64
	casAttempts := make([]uint64, threads)

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if pin && affinity.CanPin() {
				_ = affinity.PinSelf(place.CPUOf[w])
			}
			ready.Add(1)
			for start.Load() == 0 {
			}
			switch mode {
			case FAA:
				for i := 0; i < incs; i++ {
					ctr.v.Add(1)
				}
			case CASLoop:
				var attempts uint64
				for i := 0; i < incs; i++ {
					for {
						old := ctr.v.Load()
						attempts++
						if ctr.v.CompareAndSwap(old, old+1) {
							break
						}
					}
				}
				casAttempts[w] = attempts
			}
		}(w)
	}
	for int(ready.Load()) < threads {
		runtime.Gosched()
	}
	t0 := time.Now()
	start.Store(1)
	wg.Wait()
	elapsed := time.Since(t0)

	total := uint64(threads) * uint64(incs)
	if got := ctr.v.Load(); got != total {
		panic(fmt.Sprintf("counter: lost increments: %d != %d", got, total))
	}
	var cas uint64
	for _, a := range casAttempts {
		cas += a
	}
	r := Result{
		Mode:        mode,
		Threads:     threads,
		Increments:  incs,
		NsPerInc:    float64(elapsed.Nanoseconds()) / float64(incs), // per-thread latency, as in the figure
		Pinned:      pin && affinity.CanPin(),
		ElapsedNano: elapsed.Nanoseconds(),
		TotalCAS:    cas,
	}
	if mode == CASLoop {
		r.CASPerInc = float64(cas) / float64(total)
	}
	return r
}

// Figure writes Figure 1 as a table: for T = 1, 2, 4, ... threads up to
// 2×NumCPU (clipped to maxThreads when it is positive), the time per
// increment with F&A and with a CAS loop, the CAS attempts per increment,
// and the CAS loop's slowdown.
func Figure(w io.Writer, maxThreads, incs int, pin bool) {
	max := 2 * runtime.NumCPU()
	if maxThreads > 0 && max > maxThreads {
		max = maxThreads
	}
	fmt.Fprintf(w, "%-8s  %-12s  %-12s  %-8s  %s\n", "threads", "F&A ns/inc", "CAS ns/inc", "CAS/inc", "CAS slowdown")
	for t := 1; t <= max; t *= 2 {
		faa := Run(FAA, t, incs, pin)
		cas := Run(CASLoop, t, incs, pin)
		fmt.Fprintf(w, "%-8d  %-12.2f  %-12.2f  %-8.3f  %.2fx\n",
			t, faa.NsPerInc, cas.NsPerInc, cas.CASPerInc, cas.NsPerInc/faa.NsPerInc)
	}
}
