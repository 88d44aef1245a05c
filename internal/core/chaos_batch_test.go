//go:build chaos

package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcrq/internal/chaos"
	"lcrq/internal/linearize"
	"lcrq/internal/xrand"
)

// batchChaosCampaign is chaosCampaign's batched sibling: workers issue
// EnqueueBatch/DequeueBatch of 1–2 items, every batch is decomposed into
// its constituent single-item ops (sharing the batch's interval), and each
// tiny history goes through the exhaustive linearizability checker.
func batchChaosCampaign(t *testing.T, cfg Config, rounds, threads, batchesEach int, seed uint64) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		q := NewLCRQ(cfg)
		rec := linearize.NewRecorder(threads)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := q.NewHandle()
				defer h.Release()
				rng := xrand.New(seed + uint64(round)*1000 + uint64(th))
				<-start
				for i := 0; i < batchesEach; i++ {
					k := int(rng.Uintn(2)) + 1
					if rng.Uint64()%2 == 0 {
						vs := make([]uint64, k)
						for j := range vs {
							vs[j] = uint64(th)<<32 | uint64(i)<<8 | uint64(j) + 1
						}
						inv := rec.Now()
						n, _ := q.EnqueueBatch(h, vs)
						ret := rec.Now()
						for _, v := range vs[:n] {
							rec.Append(th, linearize.Op{
								Kind: linearize.Enq, Value: v,
								Invoke: inv, Return: ret,
							})
						}
					} else {
						out := make([]uint64, k)
						inv := rec.Now()
						n := q.DequeueBatch(h, out)
						ret := rec.Now()
						if n == 0 {
							rec.Append(th, linearize.Op{
								Kind: linearize.Deq, OK: false,
								Invoke: inv, Return: ret,
							})
							continue
						}
						for _, v := range out[:n] {
							rec.Append(th, linearize.Op{
								Kind: linearize.Deq, Value: v, OK: true,
								Invoke: inv, Return: ret,
							})
						}
					}
				}
			}(th)
		}
		close(start)
		wg.Wait()
		hist := rec.History()
		if !linearize.Check(hist) {
			t.Fatalf("round %d: non-linearizable batch history under chaos:\n%v", round, hist)
		}
	}
}

// TestBatchLinearizableUnderInjection arms each injection point reachable
// from the batch paths — including the two new reservation windows — and
// requires linearizability to survive, with vacuousness checks that the
// points actually fired.
func TestBatchLinearizableUnderInjection(t *testing.T) {
	tiny := Config{RingOrder: 1, StarvationLimit: 4}
	bounded := Config{RingOrder: 1, StarvationLimit: 4, Capacity: 2}
	for _, sc := range []pointScenario{
		{chaos.BatchEnqReserve, 0.7, tiny},
		{chaos.BatchDeqReserve, 0.7, tiny},
		{chaos.EnqCAS2Fail, 0.3, tiny},
		{chaos.DeqCAS2Fail, 0.3, tiny},
		{chaos.RingClose, 0.2, tiny},
		{chaos.Tantrum, 0.2, tiny},
		{chaos.Handoff, 0.7, tiny},
		{chaos.CapacityGate, 0.5, bounded},
	} {
		t.Run(sc.point.String(), func(t *testing.T) {
			chaos.Reset()
			defer chaos.Reset()
			chaos.Set(sc.point, sc.prob)
			batchChaosCampaign(t, sc.cfg, 40, 3, 4, 21)
			if chaos.Fired(sc.point) == 0 {
				t.Fatalf("injection point %v never fired; scenario is vacuous", sc.point)
			}
		})
	}
}

// TestBatchEnqueueRacingClose races batch enqueues against Close with the
// reservation window widened: every batch must be accepted as a clean
// prefix (n values in, the rest reported EnqClosed), and a post-close drain
// must see exactly the accepted values, in per-thread order.
func TestBatchEnqueueRacingClose(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.BatchEnqReserve, 0.8)
	chaos.Set(chaos.RingClose, 0.1)

	const threads = 3
	for round := 0; round < 30; round++ {
		q := NewLCRQ(Config{RingOrder: 1, StarvationLimit: 4})
		var wg sync.WaitGroup
		accepted := make([][]uint64, threads)
		start := make(chan struct{})
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := q.NewHandle()
				defer h.Release()
				<-start
				for i := 0; i < 6; i++ {
					vs := []uint64{
						uint64(th)<<32 | uint64(i)<<8 | 1,
						uint64(th)<<32 | uint64(i)<<8 | 2,
					}
					n, st := q.EnqueueBatch(h, vs)
					accepted[th] = append(accepted[th], vs[:n]...)
					if st == EnqClosed {
						return
					}
				}
			}(th)
		}
		closer := q.NewHandle()
		close(start)
		if round%2 == 1 {
			// Let some reservations land first so Close races in-flight
			// batches instead of winning before any worker wakes.
			time.Sleep(100 * time.Microsecond)
		}
		q.Close(closer)
		wg.Wait()

		drained := map[uint64]bool{}
		var order = map[int][]uint64{} // per-thread dequeue order
		h := q.NewHandle()
		out := make([]uint64, 4)
		for {
			n := q.DequeueBatch(h, out)
			if n == 0 {
				break
			}
			for _, v := range out[:n] {
				if drained[v] {
					t.Fatalf("round %d: value %d drained twice", round, v)
				}
				drained[v] = true
				th := int(v >> 32)
				order[th] = append(order[th], v)
			}
		}
		h.Release()
		closer.Release()
		for th := 0; th < threads; th++ {
			if len(order[th]) != len(accepted[th]) {
				t.Fatalf("round %d: thread %d accepted %d values, drained %d",
					round, th, len(accepted[th]), len(order[th]))
			}
			for i, v := range accepted[th] {
				if order[th][i] != v {
					t.Fatalf("round %d: thread %d FIFO violated at %d: %d != %d",
						round, th, i, order[th][i], v)
				}
			}
		}
	}
	if chaos.Fired(chaos.BatchEnqReserve) == 0 {
		t.Fatal("BatchEnqReserve never fired; close race is vacuous")
	}
}

// TestBatchDequeueRacingRetirement hammers batch dequeues across constant
// ring retirement (tiny rings, hand-off delays armed): conservation must
// hold — every enqueued value is dequeued exactly once.
func TestBatchDequeueRacingRetirement(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.BatchDeqReserve, 0.6)
	chaos.Set(chaos.Handoff, 0.6)

	const (
		producers = 2
		consumers = 2
		perProd   = 200
	)
	q := NewLCRQ(Config{RingOrder: 1, StarvationLimit: 4})
	var wg sync.WaitGroup
	seen := make([]map[uint64]bool, consumers)
	var total int64
	var mu sync.Mutex
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			local := map[uint64]bool{}
			out := make([]uint64, 8)
			for {
				n := q.DequeueBatch(h, out)
				for _, v := range out[:n] {
					if local[v] {
						t.Errorf("consumer %d saw %d twice", c, v)
					}
					local[v] = true
				}
				if n == 0 {
					select {
					case <-done:
						// Final sweep after producers stopped.
						if q.DequeueBatch(h, out) == 0 {
							mu.Lock()
							seen[c] = local
							mu.Unlock()
							return
						}
					default:
					}
				}
			}
		}(c)
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < perProd; i += 4 {
				vs := make([]uint64, 4)
				for j := range vs {
					vs[j] = uint64(p)<<32 | uint64(i+j) | 1<<62
				}
				q.EnqueueBatch(h, vs)
			}
		}(p)
	}
	pwg.Wait()
	close(done)
	wg.Wait()
	union := map[uint64]bool{}
	for _, m := range seen {
		for v := range m {
			if union[v] {
				t.Fatalf("value %d dequeued by two consumers", v)
			}
			union[v] = true
		}
	}
	total = int64(len(union))
	if want := int64(producers * perProd); total != want {
		t.Fatalf("conservation violated: %d of %d values drained", total, want)
	}
	if chaos.Fired(chaos.BatchDeqReserve) == 0 {
		t.Fatal("BatchDeqReserve never fired; retirement race is vacuous")
	}
}

// TestBatchBoundedPartialUnderChaos keeps a capacity-2 queue perpetually
// contended by batch producers while the capacity gate and reservation
// windows are armed. The workers run in rounds; between rounds no enqueue
// is in flight, so accepted − dequeued, as the test counts them, must be at
// most the bound and equal Items() exactly. (Inside a round Items() may
// read above the bound by a batch's not-yet-refunded reservation; see
// LCRQ.Items.) Partial acceptances must refund cleanly: after a full drain
// every accepted value has come out once and Items() reads zero.
func TestBatchBoundedPartialUnderChaos(t *testing.T) {
	chaos.Reset()
	defer chaos.Reset()
	chaos.Set(chaos.CapacityGate, 0.5)
	chaos.Set(chaos.BatchEnqReserve, 0.5)

	const (
		cap     = 2
		workers = 3
		iters   = 50 // enqueue/dequeue batch pairs per worker per round
	)
	q := NewLCRQ(Config{RingOrder: 1, StarvationLimit: 4, Capacity: cap})
	hs := make([]*Handle, workers)
	for w := range hs {
		hs[w] = q.NewHandle()
		defer hs[w].Release()
	}
	next := make([]uint64, workers) // worker w's next value is next[w]+1
	var accepted, dequeued atomic.Int64
	// Run rounds until both armed points have demonstrably fired (bounded by
	// a deadline so a wedged scenario fails loudly rather than hanging).
	deadline := time.Now().Add(2 * time.Second)
	for r := 0; time.Now().Before(deadline); r++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				vs := make([]uint64, 3) // always wider than the whole budget
				out := make([]uint64, 3)
				for i := 0; i < iters; i++ {
					for j := range vs {
						vs[j] = uint64(w)<<32 | next[w] + uint64(j) + 1
					}
					// A batch is accepted as a prefix; the rest is retried.
					n, _ := q.EnqueueBatch(hs[w], vs)
					next[w] += uint64(n)
					accepted.Add(int64(n))
					dequeued.Add(int64(q.DequeueBatch(hs[w], out)))
				}
			}(w)
		}
		wg.Wait()
		in := accepted.Load() - dequeued.Load()
		if in > cap {
			t.Fatalf("round %d: %d accepted items not dequeued, capacity %d", r, in, cap)
		}
		if items := q.Items(); items != in {
			t.Fatalf("round %d: quiescent Items() = %d, want %d (accepted − dequeued)", r, items, in)
		}
		if chaos.Fired(chaos.CapacityGate) > 0 && chaos.Fired(chaos.BatchEnqReserve) > 0 {
			break
		}
	}
	// Drain everything; the account must return exactly to zero.
	h := q.NewHandle()
	defer h.Release()
	out := make([]uint64, 8)
	for n := q.DequeueBatch(h, out); n > 0; n = q.DequeueBatch(h, out) {
		dequeued.Add(int64(n))
	}
	if got := q.Items(); got != 0 {
		t.Fatalf("Items() after drain = %d, want 0 (refund leaked)", got)
	}
	if a, d := accepted.Load(), dequeued.Load(); a != d {
		t.Fatalf("conservation violated: %d values accepted, %d dequeued", a, d)
	}
	if chaos.Fired(chaos.CapacityGate) == 0 || chaos.Fired(chaos.BatchEnqReserve) == 0 {
		t.Fatal("bounded chaos scenario is vacuous")
	}
}
