// Package harness implements the paper's benchmark methodology (§5):
//
//   - every thread executes a fixed number of enqueue/dequeue pairs;
//   - a random delay of up to MaxDelayNs nanoseconds (the paper uses 100)
//     separates consecutive operations, preventing artificial "long runs";
//   - threads are locked to OS threads and, where the platform allows,
//     pinned to hardware threads according to a placement policy
//     (single-cluster for the single-processor experiments, round-robin
//     across clusters for the multi-processor ones);
//   - each configuration is run several times and averaged;
//   - optionally the queue is pre-filled (Figure 7a uses 2^16 items) and
//     per-operation latency is sampled into a histogram (Figure 8).
//
// The harness powers every throughput figure and statistics table of the
// reproduction, via cmd/qbench and the root bench_test.go.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"lcrq/internal/affinity"
	"lcrq/internal/hist"
	"lcrq/internal/instrument"
	"lcrq/internal/queues"
	"lcrq/internal/stats"
	"lcrq/internal/xrand"
)

// Placement selects the thread-to-CPU policy.
type Placement int

const (
	// SingleCluster keeps all threads within one processor package — the
	// paper's single-processor executions (Figure 6).
	SingleCluster Placement = iota
	// RoundRobin spreads threads across clusters round-robin so that
	// cross-cluster coherence cost always exists — the paper's
	// four-processor executions (Figure 7).
	RoundRobin
)

func (p Placement) String() string {
	if p == SingleCluster {
		return "single-cluster"
	}
	return "round-robin"
}

// Workload describes one benchmark configuration.
type Workload struct {
	Queue     string // registry name
	Threads   int
	Pairs     int // enqueue/dequeue pairs per thread
	Prefill   int // items inserted before the clock starts
	MaxDelay  int // max random inter-operation delay in ns (0 disables)
	Placement Placement
	Clusters  int // clusters for RoundRobin (0 = detected packages, min 1)
	RingOrder int // LCRQ family ring order (0 = default)
	Runs      int // measurement repetitions (0 = 1)
	Pin       bool
	// LatencySample, when > 0, samples the latency of every k-th operation
	// into the result histogram.
	LatencySample int
	// EnqRatio, when nonzero, switches from the paper's enqueue/dequeue
	// pairs to a mixed workload (an extension beyond the paper's
	// methodology): each of the 2×Pairs operations is an enqueue with this
	// probability, otherwise a dequeue. 0.5 approximates the pairs
	// workload without its strict alternation; 0.7 grows the queue; 0.3
	// drains against prefill.
	EnqRatio float64
	// Verify drains the queue after each run and checks item conservation:
	// prefill + enqueues must equal successful dequeues + leftovers. A
	// violation fails the run with an error. Costs one full drain per run.
	Verify bool
	// Capacity, when positive, runs the LCRQ family bounded (governed
	// mode): at most Capacity items in flight, producers blocking when the
	// budget binds. Other queues ignore it.
	Capacity int64
	// Watchdog, when positive, samples the governed queue's budget stats at
	// this interval during each run and derives a health verdict (see
	// Result.Governance). Requires a Governed adapter to have any effect.
	Watchdog time.Duration
	// Batch, when > 1, replaces each enqueue/dequeue pair with an
	// EnqueueBatch/DequeueBatch pair of that size (the pair count is scaled
	// down so the item volume matches the Batch=1 workload). Requires a
	// queue whose handles implement queues.BatchHandle; latency sampling is
	// not applied to batch operations.
	Batch int
	// Adaptive arms the LCRQ family's adaptive contention controller for
	// the run (qbench -oversub sweeps it against the fixed-constant
	// default). Other queues ignore it.
	Adaptive bool
}

// Result aggregates the runs of one workload.
type Result struct {
	Workload   Workload
	Mops       stats.Sample // throughput per run, million ops/second
	Hist       *hist.H      // sampled operation latency (nil unless sampling)
	Counters   instrument.Counters
	OpsPerRun  uint64
	Simulated  bool // clusters were simulated (host has fewer packages)
	Pinned     bool // threads were actually pinned
	HostCPUs   int
	HostPkgs   int
	WallPerRun time.Duration // mean wall time of one run
	// Governance is the budget outcome of the last run when the workload
	// ran governed (Capacity/Watchdog set and the queue supports it); nil
	// otherwise.
	Governance *queues.GovernanceStats
}

// ThroughputMops returns the mean throughput in million operations per
// second (an operation is one enqueue or one dequeue).
func (r *Result) ThroughputMops() float64 { return r.Mops.Mean() }

// Run executes the workload and returns aggregated results.
func Run(w Workload) (*Result, error) {
	if w.Threads < 1 {
		return nil, fmt.Errorf("harness: threads must be positive")
	}
	if w.Pairs < 1 {
		return nil, fmt.Errorf("harness: pairs must be positive")
	}
	runs := w.Runs
	if runs < 1 {
		runs = 1
	}
	if w.Capacity > 0 && w.Prefill > int(w.Capacity) {
		return nil, fmt.Errorf("harness: prefill %d exceeds capacity %d (producers would block forever)",
			w.Prefill, w.Capacity)
	}
	if w.Batch > 1 && w.EnqRatio > 0 {
		return nil, fmt.Errorf("harness: batch and enq-ratio workloads are mutually exclusive")
	}
	if w.MaxDelay > 0 {
		spinCalibrate.Do(calibrateSpin) // keep calibration out of the measured loop
	}
	topo := affinity.Detect()
	var place *affinity.Placement
	switch w.Placement {
	case SingleCluster:
		place = topo.SingleCluster(w.Threads)
	case RoundRobin:
		clusters := w.Clusters
		if clusters <= 0 {
			clusters = topo.NumPackages()
		}
		place = topo.RoundRobin(w.Threads, clusters)
	default:
		return nil, fmt.Errorf("harness: unknown placement %d", w.Placement)
	}

	res := &Result{
		Workload:  w,
		Simulated: place.Simulated,
		Pinned:    w.Pin && affinity.CanPin(),
		HostCPUs:  topo.NumCPUs(),
		HostPkgs:  topo.NumPackages(),
		OpsPerRun: 2 * uint64(w.Threads) * uint64(w.Pairs),
	}
	if w.LatencySample > 0 {
		res.Hist = &hist.H{}
	}

	var totalWall time.Duration
	for run := 0; run < runs; run++ {
		elapsed, counters, h, gov, err := runOnce(w, place, run)
		if err != nil {
			return nil, err
		}
		totalWall += elapsed
		mops := float64(res.OpsPerRun) / elapsed.Seconds() / 1e6
		res.Mops.Add(mops)
		res.Counters.Add(counters)
		if res.Hist != nil && h != nil {
			res.Hist.Merge(h)
		}
		if gov != nil {
			res.Governance = gov
		}
	}
	res.WallPerRun = totalWall / time.Duration(runs)
	return res, nil
}

func runOnce(w Workload, place *affinity.Placement, run int) (time.Duration, *instrument.Counters, *hist.H, *queues.GovernanceStats, error) {
	q, err := queues.New(w.Queue, queues.Config{
		RingOrder: w.RingOrder,
		Clusters:  maxInt(place.Clusters, 1),
		Threads:   w.Threads,
		Prefill:   w.Prefill,
		Capacity:  w.Capacity,
		Watchdog:  w.Watchdog,
		Adaptive:  w.Adaptive,
	})
	if err != nil {
		return 0, nil, nil, nil, err
	}

	if w.Batch > 1 {
		h := q.NewHandle(0, 0)
		_, batched := h.(queues.BatchHandle)
		h.Release()
		if !batched {
			return 0, nil, nil, nil, fmt.Errorf("harness: queue %q does not support batch operations", w.Queue)
		}
	}

	if w.Prefill > 0 {
		h := q.NewHandle(0, 0)
		for i := 0; i < w.Prefill; i++ {
			h.Enqueue(prefillValue(i))
		}
		h.Release()
	}

	var (
		ready, start atomic.Int64
		wg           sync.WaitGroup
		perThreadCtr = make([]instrument.Counters, w.Threads)
		perThreadH   = make([]*hist.H, w.Threads)
	)
	for t := 0; t < w.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			// Label the worker for CPU profiles: `go tool pprof -tagfocus`
			// can then isolate one queue implementation or one worker.
			labels := pprof.Labels("queue", w.Queue, "worker", fmt.Sprint(t))
			pprof.Do(context.Background(), labels, func(context.Context) {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				if w.Pin && affinity.CanPin() {
					_ = affinity.PinSelf(place.CPUOf[t])
				}
				h := q.NewHandle(t, place.ClusterOf[t])
				rng := xrand.New(uint64(run)<<32 | uint64(t+1))
				var lh *hist.H
				if w.LatencySample > 0 {
					lh = &hist.H{}
				}
				ready.Add(1)
				for start.Load() == 0 {
				}
				workerLoop(h, w, rng, lh, t)
				perThreadCtr[t] = *h.Counters()
				perThreadH[t] = lh
				h.Release()
			})
		}(t)
	}
	for int(ready.Load()) < w.Threads {
		runtime.Gosched()
	}
	gq, governed := q.(queues.Governed)
	var wdStop chan struct{}
	var wdDone chan wdOutcome
	if governed && w.Watchdog > 0 {
		wdStop = make(chan struct{})
		wdDone = make(chan wdOutcome, 1)
		go watchGovernance(gq, w.Watchdog, wdStop, wdDone)
	}
	t0 := time.Now()
	start.Store(1)
	wg.Wait()
	elapsed := time.Since(t0)

	var gov *queues.GovernanceStats
	if governed && (w.Capacity > 0 || w.Watchdog > 0) {
		g := gq.Governance()
		if wdStop != nil {
			close(wdStop)
			out := <-wdDone
			g.Checks, g.Verdict = out.checks, out.verdict
		}
		gov = &g
	}

	total := &instrument.Counters{}
	merged := &hist.H{}
	for t := 0; t < w.Threads; t++ {
		total.Add(&perThreadCtr[t])
		if perThreadH[t] != nil {
			merged.Merge(perThreadH[t])
		}
	}
	if w.LatencySample <= 0 {
		merged = nil
	}
	if w.Verify {
		if err := verifyConservation(q, w, total); err != nil {
			return 0, nil, nil, nil, err
		}
	}
	return elapsed, total, merged, gov, nil
}

// wdOutcome is what the governance watchdog reports when it stops.
type wdOutcome struct {
	checks  uint64
	verdict string
}

// watchGovernance samples a governed queue's budget stats every interval
// and derives a health verdict: "capacity-stall" when the queue sat pinned
// at capacity (rejections with no item-count movement) for two consecutive
// checks, "ok" otherwise. Problem verdicts are sticky for the run — a
// benchmark that livelocked even briefly should say so.
func watchGovernance(gq queues.Governed, interval time.Duration, stop <-chan struct{}, done chan<- wdOutcome) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	out := wdOutcome{verdict: "ok"}
	prev := gq.Governance()
	fullTicks := 0
	for {
		select {
		case <-stop:
			done <- out
			return
		case <-tick.C:
			cur := gq.Governance()
			out.checks++
			if cur.Capacity > 0 && cur.Items >= cur.Capacity && cur.CapacityRejects > prev.CapacityRejects {
				fullTicks++
			} else {
				fullTicks = 0
			}
			if fullTicks >= 2 {
				out.verdict = "capacity-stall"
			}
			prev = cur
		}
	}
}

// verifyConservation drains the queue and checks that no item was lost or
// duplicated: prefill + enqueues = successful dequeues + leftovers.
func verifyConservation(q queues.Queue, w Workload, c *instrument.Counters) error {
	h := q.NewHandle(0, 0)
	defer h.Release()
	leftovers := uint64(0)
	for {
		if _, ok := h.Dequeue(); !ok {
			break
		}
		leftovers++
	}
	in := uint64(w.Prefill) + c.Enqueues
	out := (c.Dequeues - c.Empty) + leftovers
	if in != out {
		return fmt.Errorf("harness: conservation violated for %s: %d in (prefill %d + enq %d) vs %d out (deq %d + leftover %d)",
			w.Queue, in, w.Prefill, c.Enqueues, out, c.Dequeues-c.Empty, leftovers)
	}
	return nil
}

// workerLoop is the measured inner loop: Pairs × (enqueue, delay, dequeue,
// delay), with optional latency sampling; or a randomized mix when
// EnqRatio is set.
func workerLoop(h queues.Handle, w Workload, rng *xrand.State, lh *hist.H, t int) {
	if w.EnqRatio > 0 {
		mixedLoop(h, w, rng, lh, t)
		return
	}
	if w.Batch > 1 {
		if bh, ok := h.(queues.BatchHandle); ok {
			batchLoop(bh, w, rng, t)
			return
		}
	}
	sample := w.LatencySample
	opIdx := 0
	for i := 0; i < w.Pairs; i++ {
		v := uint64(t)<<32 | uint64(i) | 1<<62
		if lh != nil && sample > 0 && opIdx%sample == 0 {
			st := time.Now()
			h.Enqueue(v)
			lh.Record(time.Since(st).Nanoseconds())
		} else {
			h.Enqueue(v)
		}
		opIdx++
		if w.MaxDelay > 0 {
			spinWait(int(rng.Uintn(uint64(w.MaxDelay) + 1)))
		}
		if lh != nil && sample > 0 && opIdx%sample == 0 {
			st := time.Now()
			h.Dequeue()
			lh.Record(time.Since(st).Nanoseconds())
		} else {
			h.Dequeue()
		}
		opIdx++
		if w.MaxDelay > 0 {
			spinWait(int(rng.Uintn(uint64(w.MaxDelay) + 1)))
		}
	}
}

// batchLoop is the batched counterpart of workerLoop: each iteration moves
// a block of up to Batch values through EnqueueBatch and then attempts to
// take a block of the same size back with DequeueBatch, preserving the
// total item volume of the pairs workload (Pairs items per direction per
// thread). The dequeue is a single attempt, like the pairs loop's single
// Dequeue call: a short block means other threads got there first, and the
// conservation check accounts for it.
func batchLoop(bh queues.BatchHandle, w Workload, rng *xrand.State, t int) {
	k := w.Batch
	in := make([]uint64, k)
	out := make([]uint64, k)
	for i := 0; i < w.Pairs; i += k {
		n := k
		if w.Pairs-i < n {
			n = w.Pairs - i
		}
		for j := 0; j < n; j++ {
			in[j] = uint64(t)<<32 | uint64(i+j) | 1<<62
		}
		bh.EnqueueBatch(in[:n])
		if w.MaxDelay > 0 {
			spinWait(int(rng.Uintn(uint64(w.MaxDelay) + 1)))
		}
		bh.DequeueBatch(out[:n])
		if w.MaxDelay > 0 {
			spinWait(int(rng.Uintn(uint64(w.MaxDelay) + 1)))
		}
	}
}

// mixedLoop performs 2×Pairs operations, each an enqueue with probability
// EnqRatio. The threshold is precomputed against the RNG's 64-bit output.
func mixedLoop(h queues.Handle, w Workload, rng *xrand.State, lh *hist.H, t int) {
	ratio := w.EnqRatio
	if ratio > 1 {
		ratio = 1
	}
	threshold := uint64(ratio * float64(^uint64(0)))
	sample := w.LatencySample
	seq := 0
	for op := 0; op < 2*w.Pairs; op++ {
		enq := rng.Uint64() <= threshold
		timed := lh != nil && sample > 0 && op%sample == 0
		var st time.Time
		if timed {
			st = time.Now()
		}
		if enq {
			seq++
			h.Enqueue(uint64(t)<<32 | uint64(seq) | 1<<62)
		} else {
			h.Dequeue()
		}
		if timed {
			lh.Record(time.Since(st).Nanoseconds())
		}
		if w.MaxDelay > 0 {
			spinWait(int(rng.Uintn(uint64(w.MaxDelay) + 1)))
		}
	}
}

// prefillValue produces distinct values outside the worker value space.
func prefillValue(i int) uint64 { return uint64(i) | 1<<61 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---- calibrated nanosecond-scale busy wait ----

var (
	spinPerNs     float64
	spinCalibrate sync.Once
	spinSink      atomic.Uint64
)

// spinWait busy-waits for roughly ns nanoseconds without sleeping (the
// granularity of time.Sleep is far too coarse for the ≤100 ns delays of the
// methodology).
func spinWait(ns int) {
	if ns <= 0 {
		return
	}
	spinCalibrate.Do(calibrateSpin)
	iters := int(float64(ns) * spinPerNs)
	var x uint64
	for i := 0; i < iters; i++ {
		x += uint64(i)
	}
	spinSink.Store(x) // defeat dead-code elimination
}

func calibrateSpin() {
	const probe = 1 << 22
	t0 := time.Now()
	var x uint64
	for i := 0; i < probe; i++ {
		x += uint64(i)
	}
	spinSink.Store(x)
	ns := time.Since(t0).Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	spinPerNs = float64(probe) / float64(ns)
	if spinPerNs < 0.1 {
		spinPerNs = 0.1
	}
}
