package core

// Whitebox tests that drive individual protocol transitions of Figure 3 by
// manipulating the ring's head/tail indices directly, verifying the cell
// encoding and the instrumentation hooks transition by transition.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func cellState(q *CRQ, i uint64) (safe bool, idx uint64, val uint64, empty bool) {
	c := q.cell(i)
	lo, hi := c.LoadLo(), c.LoadHi()
	return lo&unsafeFlag == 0, lo & idxMask, ^hi, hi == 0
}

func TestCellEncodingAfterEnqueue(t *testing.T) {
	q := NewCRQ(smallCfg(2))
	h := NewHandle()
	if !q.Enqueue(h, 77) {
		t.Fatal("enqueue failed")
	}
	safe, idx, val, empty := cellState(q, 0)
	if !safe || idx != 0 || val != 77 || empty {
		t.Fatalf("cell after enqueue: safe=%v idx=%d val=%d empty=%v", safe, idx, val, empty)
	}
}

func TestCellEncodingAfterDequeue(t *testing.T) {
	q := NewCRQ(smallCfg(2)) // R = 4
	h := NewHandle()
	q.Enqueue(h, 77)
	if v, _ := q.Dequeue(h); v != 77 {
		t.Fatal("wrong value")
	}
	safe, idx, _, empty := cellState(q, 0)
	if !safe || idx != 4 || !empty {
		t.Fatalf("cell after dequeue: safe=%v idx=%d empty=%v (want safe, idx=R, empty)", safe, idx, empty)
	}
}

// TestEmptyTransitionPoisonsCell: a dequeuer that outruns its enqueuer
// bumps the cell index by R, forcing the matching enqueuer to retry with a
// new index.
func TestEmptyTransitionPoisonsCell(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 2, NoPadding: true, SpinWait: -1})
	h := NewHandle()
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("empty ring returned value")
	}
	if h.C.EmptyTrans != 1 {
		t.Fatalf("EmptyTrans = %d, want 1", h.C.EmptyTrans)
	}
	// Cell 0 now carries idx=0+R: the enqueuer with t=0 must skip it.
	_, idx, _, empty := cellState(q, 0)
	if idx != 4 || !empty {
		t.Fatalf("poisoned cell: idx=%d empty=%v", idx, empty)
	}
	// fixState repaired head>tail, so the next enqueue gets t=1 (not 0)
	// and succeeds immediately.
	if !q.Enqueue(h, 5) {
		t.Fatal("enqueue after poison failed")
	}
	if v, ok := q.Dequeue(h); !ok || v != 5 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

// TestSpinWaitTriggers: an empty cell whose matching enqueuer is "active"
// (tail already advanced past h) makes the dequeuer spin before poisoning.
func TestSpinWaitTriggers(t *testing.T) {
	const spins = 10
	q := NewCRQ(Config{RingOrder: 2, NoPadding: true, SpinWait: spins})
	h := NewHandle()
	// Simulate an enqueuer that took t=0 but has not deposited yet.
	q.tail.Add(1)
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("no value should be found")
	}
	if h.C.SpinWaits != spins {
		t.Fatalf("SpinWaits = %d, want %d", h.C.SpinWaits, spins)
	}
	if h.C.EmptyTrans == 0 {
		t.Fatal("expected an empty transition after the spin budget expired")
	}
}

// TestSpinWaitSucceeds: if the enqueuer deposits during the spin window the
// dequeuer picks the value up without poisoning the cell.
func TestSpinWaitSucceeds(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 2, NoPadding: true, SpinWait: 1 << 30})
	hd, he := NewHandle(), NewHandle()
	q.tail.Add(1) // reserve t=0 as if an enqueuer's F&A happened
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		// Deposit directly into cell 0, completing the reserved enqueue.
		c := q.cell(0)
		if !c.CompareAndSwap(0, 0, 0, ^uint64(99)) {
			t.Error("deposit CAS failed")
		}
		_ = he
	}()
	v, ok := q.Dequeue(hd)
	wg.Wait()
	if !ok || v != 99 {
		t.Fatalf("got (%d,%v), want (99,true)", v, ok)
	}
	if hd.C.EmptyTrans != 0 {
		t.Fatal("dequeuer poisoned the cell despite the deposit")
	}
	if hd.C.SpinWaits == 0 {
		t.Fatal("dequeuer did not spin")
	}
}

// TestUnsafeTransitionMarksCell: a dequeuer that is a whole lap ahead of an
// occupied cell marks it unsafe rather than dequeuing it.
func TestUnsafeTransitionMarksCell(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 1, NoPadding: true, SpinWait: -1}) // R = 2
	h := NewHandle()
	q.Enqueue(h, 11) // cell 0 occupied with idx 0
	// Simulate a dequeuer one lap ahead: force head to 2 so its F&A
	// returns index 2, which maps to cell 0 but exceeds its idx by R.
	q.head.Store(2)
	q.tail.Store(3) // keep the empty check from firing prematurely
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Dequeue(h) // index 2 → unsafe transition on cell 0, then retries
	}()
	<-done
	if h.C.UnsafeTrans == 0 {
		t.Fatal("no unsafe transition recorded")
	}
	safe, idx, val, _ := cellState(q, 0)
	if safe || idx != 0 || val != 11 {
		t.Fatalf("cell after unsafe transition: safe=%v idx=%d val=%d", safe, idx, val)
	}
}

// TestUnsafeCellEnqueueRecovery: an enqueuer may still use an unsafe cell
// when it can prove the poisoning dequeuer has not started (head ≤ t), and
// doing so re-safes the cell.
func TestUnsafeCellEnqueueRecovery(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 1, NoPadding: true}) // R = 2
	h := NewHandle()
	// Make cell 0 unsafe but empty: (0, 0, ⊥).
	q.cell(0).StoreLo(unsafeFlag)
	// head = 0 ≤ t = 0, so the enqueue transition is allowed and restores
	// the safe bit.
	if !q.Enqueue(h, 42) {
		t.Fatal("enqueue into provably-safe unsafe cell failed")
	}
	safe, idx, val, _ := cellState(q, 0)
	if !safe || idx != 0 || val != 42 {
		t.Fatalf("cell: safe=%v idx=%d val=%d", safe, idx, val)
	}
	if v, ok := q.Dequeue(h); !ok || v != 42 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

// TestUnsafeCellEnqueueSkipped: when head has passed t, the enqueuer must
// not deposit into an unsafe cell (the dequeuer that poisoned it will never
// come back); it retries elsewhere or closes.
func TestUnsafeCellEnqueueSkipped(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 1, NoPadding: true, StarvationLimit: 4}) // R = 2
	h := NewHandle()
	q.cell(0).StoreLo(unsafeFlag) // unsafe empty cell 0
	q.cell(1).StoreLo(unsafeFlag) // unsafe empty cell 1
	q.head.Store(4)               // head far ahead: both cells are doomed
	ok := q.Enqueue(h, 9)
	if ok {
		t.Fatal("enqueue deposited into a doomed cell")
	}
	if !q.Closed() {
		t.Fatal("ring should have closed after starving")
	}
}

// TestFixStateRepairsInversion: empty dequeues can leave head > tail;
// fixState must restore head ≤ tail so enqueues do not see a full ring.
func TestFixStateRepairsInversion(t *testing.T) {
	q := NewCRQ(smallCfg(2))
	h := NewHandle()
	for i := 0; i < 3; i++ {
		q.Dequeue(h) // each empty dequeue bumps head
	}
	hd, tl := q.head.Load(), q.tail.Load()
	if hd > tl {
		t.Fatalf("fixState failed: head %d > tail %d", hd, tl)
	}
}

// TestTantrumMonotonicUnderConcurrency: once any enqueuer observes CLOSED,
// every enqueue that starts afterwards must also observe CLOSED. (An
// enqueue already past its tail F&A when the ring closed may still
// succeed, so only enqueues started after the observation are checked.)
// Conservation keeps the check strict: the ring then yields exactly the
// accepted values.
func TestTantrumMonotonicUnderConcurrency(t *testing.T) {
	const workers, each = 4, 1000
	q := NewCRQ(Config{RingOrder: 2, NoPadding: true, StarvationLimit: 4})
	var closedSeen atomic.Bool
	accepted := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := NewHandle()
			for i := 0; i < each; i++ {
				v := uint64(w*each+i) + 1
				afterClose := closedSeen.Load()
				if !q.Enqueue(h, v) {
					closedSeen.Store(true)
					return
				}
				if afterClose {
					t.Errorf("enqueue of %d started after CLOSED was observed, and succeeded", v)
					return
				}
				accepted[w] = append(accepted[w], v)
			}
		}(w)
	}
	wg.Wait()
	if !closedSeen.Load() {
		t.Fatal("the ring never closed; the scenario is vacuous")
	}
	want := make(map[uint64]bool)
	for _, vs := range accepted {
		for _, v := range vs {
			want[v] = true
		}
	}
	h := NewHandle()
	for v, ok := q.Dequeue(h); ok; v, ok = q.Dequeue(h) {
		if !want[v] {
			t.Fatalf("dequeued %d, which no enqueue reported accepted (or twice)", v)
		}
		delete(want, v)
	}
	if len(want) != 0 {
		t.Fatalf("%d accepted values were never dequeued", len(want))
	}
}

// TestHierarchicalGateClaimsCluster: the first foreign-cluster operation
// waits out the timeout, claims the ring, and subsequent operations from
// the same cluster pass the gate without a single spin — also on the rings
// they append, which start out owned by the appender's cluster.
func TestHierarchicalGateClaimsCluster(t *testing.T) {
	timeout := 2 * time.Millisecond
	q := NewLCRQ(Config{RingOrder: 4, NoPadding: true,
		Hierarchical: true, ClusterTimeout: timeout})
	h := q.NewHandle()
	defer h.Release()
	h.Cluster = 7

	t0 := time.Now()
	q.Enqueue(h, 1) // must wait ≈timeout (jittered within [t/2, 3t/2]), then claim
	first := time.Since(t0)
	if first < timeout/2 {
		t.Fatalf("first foreign op took %v, want ≥ the jittered floor %v", first, timeout/2)
	}
	if got := q.head.Load().cluster.Load(); got != 7 {
		t.Fatalf("cluster = %d, want 7", got)
	}
	spins, appends := h.C.GateSpins, h.C.Appends
	for i := 0; i < 100; i++ {
		q.Enqueue(h, uint64(i)+2)
	}
	if h.C.Appends == appends {
		t.Fatal("100 enqueues into a 16-cell ring appended no ring; the scenario is vacuous")
	}
	if d := h.C.GateSpins - spins; d != 0 {
		t.Fatalf("claimed-cluster ops spun %d times at the gate, want 0", d)
	}
}
