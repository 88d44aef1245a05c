package main

import (
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"lcrq/internal/affinity"
	"lcrq/internal/instrument"
)

const (
	// workers is the number of load-generating threads: one per CPU of the
	// 2-CPU host the benchmark is sized for, so no worker waits for a CPU.
	workers = 2
	// burstLen is how many items each burst-stream worker enqueues before
	// dequeuing as many: 4 rings of the default 4096 cells per worker.
	burstLen = 16384
	// maxDelay bounds the pairs stream's delay between calls, in iterations
	// of delay's loop (about 1.3 ns each on the 2-CPU host; provenance
	// records the measured cost). A fixed amount of work per delay, unlike a
	// timed wait, does not depend on clock-read overhead.
	maxDelay = 100
	// delayTableLen is the length of each worker's precomputed delay cycle.
	delayTableLen = 1 << 16
)

// shape is a library op stream.
type shape int

const (
	// pairsShape is the paper's §5 stream: enqueue, delay, dequeue, delay.
	pairsShape shape = iota
	// burstShape enqueues burstLen items, then dequeues until it has taken
	// burstLen, and repeats.
	burstShape
)

// sampled reports whether call c is one of the 1 in 64 whose latency is
// timed. Shifting the chosen slot by one every 64 calls makes the timed
// calls alternate between enqueues and dequeues on the pairs stream.
func sampled(c uint64) bool { return c&63 == (c>>6)&1 }

// worker drives one handle with one op stream on a locked OS thread.
type worker struct {
	_ [64]byte // keeps the hot fields of two workers off one cache line
	meter
	id       int
	h        libHandle
	delays   []uint8
	di       int
	seq      uint64
	sink     uint64
	prod     tally
	chk      checker
	enqLat   reservoir // enqueue latencies alone, for the handle ledger row
	spans    spanLog
	layer    string
	probe    ringProber
	maxRings int64
	deqs     uint64 // dequeue calls
	empties  uint64 // dequeue calls that found the queue empty
	_        [64]byte
}

func (w *worker) enqueue() {
	v := tag(w.id, w.seq)
	c := w.calls
	var ok bool
	if w.traced || sampled(c) {
		t0 := clock()
		ok = w.h.enqueue(v)
		t1 := clock()
		if w.timed("enqueue", c, t0, t1, ok) && cap(w.enqLat.buf) > 0 {
			w.enqLat.add(t1 - t0)
		}
	} else {
		ok = w.h.enqueue(v)
	}
	w.calls++
	if ok {
		w.prod.add(w.seq)
		w.seq++
		w.items++
	} else {
		w.failed++
	}
}

// dequeue issues one dequeue and reports whether it took an item.
func (w *worker) dequeue() bool {
	c := w.calls
	var v uint64
	var ok bool
	if w.traced || sampled(c) {
		t0 := clock()
		v, ok = w.h.dequeue()
		w.timed("dequeue", c, t0, clock(), ok)
	} else {
		v, ok = w.h.dequeue()
	}
	w.calls++
	w.deqs++
	if ok {
		w.chk.see(v)
		w.items++
	} else {
		w.empties++
	}
	return ok
}

// timed accounts call c, which ran from t0 to t1: its span in a traced
// window, then its window marks and, if the call moved an item, its
// latency. It reports whether the latency was kept. Empty dequeues are left
// out of the latency sample as they are out of ops_per_s: in the burst
// stream their share swings with how the two threads' phases line up, and
// the median with it.
func (w *worker) timed(op string, c uint64, t0, t1 int64, moved bool) bool {
	if w.traced {
		id := uint64(w.id+1)<<56 | c
		w.spans.add(span{ID: id, Req: id, Layer: w.layer, Op: op, Start: t0, End: t1})
	}
	return w.tick(t0, t1, moved)
}

// delay burns the next delay of the worker's seeded cycle.
func (w *worker) delay() {
	n := w.delays[w.di&(delayTableLen-1)]
	w.di++
	x := w.sink
	for i := uint8(0); i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	w.sink = x
}

func (w *worker) run(sh shape) {
	switch sh {
	case pairsShape:
		for !w.stopped {
			w.enqueue()
			w.delay()
			w.dequeue()
			w.delay()
		}
	case burstShape:
		for !w.stopped {
			for i := 0; i < burstLen && !w.stopped; i++ {
				w.enqueue()
			}
			if w.probe != nil {
				w.maxRings = max(w.maxRings, w.probe.liveRings())
			}
			for taken := 0; taken < burstLen && !w.stopped; {
				if w.dequeue() {
					taken++
				}
			}
		}
	}
}

// delayTable returns worker id's delay cycle for seed: uniform in
// [0, maxDelay].
func delayTable(seed uint64, id int) []uint8 {
	r := rand.New(rand.NewPCG(seed, uint64(id)))
	t := make([]uint8, delayTableLen)
	for i := range t {
		t[i] = uint8(r.IntN(maxDelay + 1))
	}
	return t
}

// delayNsPerIter measures the cost of one delay iteration on this host.
func delayNsPerIter() float64 {
	w := &worker{delays: make([]uint8, delayTableLen)}
	for i := range w.delays {
		w.delays[i] = maxDelay
	}
	const n = 1 << 14
	t0 := clock()
	for i := 0; i < n; i++ {
		w.delay()
	}
	return float64(clock()-t0) / (n * maxDelay)
}

// pinCPUs returns the CPUs the workers are pinned to, one each, or nil
// when pinning is unavailable or the process may use fewer CPUs than there
// are workers.
func pinCPUs() []int {
	if !affinity.CanPin() {
		return nil
	}
	var cpus []int
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
				cpus, _ = affinity.ParseCPUList(strings.TrimSpace(v))
			}
		}
	}
	if len(cpus) < workers {
		return nil
	}
	return cpus[:workers]
}

// onThreads runs fn(i) for i in [0, n) on n goroutines, each locked to its
// own OS thread and pinned to cpus[i] when cpus is non-nil, and waits for
// all of them. It reports whether every thread was pinned. The threads are
// never unlocked, so each exits with its goroutine rather than returning,
// pinned, to the scheduler.
func onThreads(n int, cpus []int, fn func(i int)) (pinned bool) {
	var wg sync.WaitGroup
	ok := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			if cpus != nil {
				ok[i] = affinity.PinSelf(cpus[i]) == nil
			}
			fn(i)
		}()
	}
	wg.Wait()
	for _, p := range ok {
		if !p {
			return false
		}
	}
	return true
}

// runConfig sets the length and instrumentation of one run.
type runConfig struct {
	seed    uint64
	warmup  time.Duration
	measure time.Duration
	window  time.Duration
	setups  int // how many set-ups are timed
	latCap  int // latency samples kept per load generator
	enqCap  int // enqueue-only latency samples kept per worker (0: none)
	trace   int // a schedule trace mode
	spanCap int // spans kept per recorder in traced windows
}

// outcome is what one run of a workload or ledger row measured.
type outcome struct {
	meters     []*meter
	sched      *schedule
	setups     []float64 // seconds
	allocBytes uint64    // heap bytes allocated in the measured part
	attempted  uint64
	failed     uint64 // failed calls plus lost, duplicated or reordered items
	err        error  // the first correctness problem, if any
	pinned     bool
	logs       []*spanLog
	enqLat     []uint32
	counters   instrument.Counters // summed over the workers' handles, warm-up included
	deqs       uint64              // dequeue calls, warm-up included
	empties    uint64              // dequeue calls that found the queue empty
	maxRings   int64
	svc        *serviceStats
	durations  map[string]float64
}

// libSpec is a library workload or ledger row: a queue and an op stream.
type libSpec struct {
	shape    shape
	layer    string // span layer name of the entry point
	newQueue func() libQueue
}

// runLib runs spec on workers threads: GC, timed set-up, warm-up, measured
// windows, then a drain and the correctness check.
func runLib(spec libSpec, rc runConfig) *outcome {
	wall := clock()
	o := &outcome{durations: map[string]float64{}}
	// Measurement buffers are allocated before set-up so that neither the
	// set-up time nor the measured allocation includes them.
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{id: i, layer: spec.layer, chk: checker{producers: workers}, delays: delayTable(rc.seed, i)}
		ws[i].lat = newReservoir(rc.latCap, rc.seed+uint64(i))
		ws[i].enqLat = newReservoir(rc.enqCap, rc.seed+uint64(i)+workers)
		if rc.trace != traceOff {
			ws[i].spans = spanLog{buf: make([]span, rc.spanCap)}
			o.logs = append(o.logs, &ws[i].spans)
		}
	}

	// Each set-up builds the queue and the workers' handles and is torn
	// down again: set-up is timed apart from the run.
	t0 := clock()
	hs := make([]libHandle, workers)
	for k := 0; k < max(1, rc.setups); k++ {
		runtime.GC()
		start := time.Now()
		q := spec.newQueue()
		for i := range hs {
			hs[i] = q.newHandle()
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		for _, h := range hs {
			h.release()
		}
		q.close()
	}
	o.durations["setups"] = float64(clock()-t0) / 1e9

	runtime.GC()
	q := spec.newQueue()
	s := newSchedule(rc.warmup, rc.measure, rc.window, rc.trace)
	o.sched = s
	probe, _ := q.(ringProber)
	for _, w := range ws {
		w.meter = newMeter(s, w.lat)
		w.probe = probe
	}
	cpus := pinCPUs()
	var a0, a1 uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		sleepUntil(s.measure)
		a0 = heapAllocBytes()
		sleepUntil(s.end)
		a1 = heapAllocBytes()
	}()
	// Each worker takes its handle on its own thread once both threads run,
	// as an application gives each goroutine its own handle. The handles'
	// small per-thread allocations then come from different processors'
	// allocation caches, so they never land on one cache line. Made on one
	// goroutine, they land on a shared line or not depending on allocator
	// state, and the pairs rate moves by half between runs with it.
	var started sync.WaitGroup
	started.Add(workers)
	o.pinned = onThreads(workers, cpus, func(i int) {
		started.Done()
		started.Wait()
		ws[i].h = q.newHandle()
		ws[i].run(spec.shape)
	})
	<-done
	o.allocBytes = a1 - a0
	o.durations["warmup"] = rc.warmup.Seconds()
	o.durations["measure"] = s.measuredSeconds()

	drain := newChecker(workers)
	dh := q.newHandle()
	for {
		v, ok := dh.dequeue()
		if !ok {
			break
		}
		drain.see(v)
	}
	dh.release()
	chks := []*checker{drain}
	produced := make([]tally, workers)
	for i, w := range ws {
		if c, ok := w.h.(counted); ok {
			cs := c.counters()
			o.counters.Add(&cs)
		}
		w.h.release()
		o.meters = append(o.meters, &w.meter)
		o.attempted += w.calls
		o.failed += w.failed
		o.enqLat = append(o.enqLat, w.enqLat.buf...)
		o.maxRings = max(o.maxRings, w.maxRings)
		o.deqs += w.deqs
		o.empties += w.empties
		chks = append(chks, &w.chk)
		produced[i] = w.prod
	}
	q.close()
	bad, err := verify(produced, chks...)
	o.failed += bad
	o.err = err
	o.durations["total"] = float64(clock()-wall) / 1e9
	return o
}
