package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// reclamationModes are the queue's two reclamation configurations: the
// paper's hazard pointers (the default) and the GC-only ablation.
var reclamationModes = []struct {
	name     string
	noHazard bool
}{{"hazard", false}, {"gc", true}}

func newSmallLCRQ(order int) *LCRQ {
	return NewLCRQ(Config{RingOrder: order, NoPadding: true})
}

func TestLCRQSequentialFIFO(t *testing.T) {
	q := newSmallLCRQ(4)
	h := q.NewHandle()
	defer h.Release()
	for i := uint64(0); i < 100; i++ {
		q.Enqueue(h, i+1)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i+1 {
			t.Fatalf("dequeue %d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("empty queue returned a value")
	}
}

// TestLCRQUnbounded exceeds a tiny ring many times over, forcing ring
// appends, head swings, and recycling.
func TestLCRQUnbounded(t *testing.T) {
	q := newSmallLCRQ(2) // R = 4
	h := q.NewHandle()
	defer h.Release()
	const n = 1000
	for i := uint64(0); i < n; i++ {
		q.Enqueue(h, i+1)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i+1 {
			t.Fatalf("dequeue %d = (%d,%v)", i, v, ok)
		}
	}
	if h.C.Appends == 0 {
		t.Fatal("expected ring appends with R=4 and 1000 items")
	}
}

func TestLCRQAlternating(t *testing.T) {
	q := newSmallLCRQ(3)
	h := q.NewHandle()
	defer h.Release()
	for i := uint64(0); i < 500; i++ {
		q.Enqueue(h, i+1)
		v, ok := q.Dequeue(h)
		if !ok || v != i+1 {
			t.Fatalf("iter %d: (%d,%v)", i, v, ok)
		}
		if _, ok := q.Dequeue(h); ok {
			t.Fatalf("iter %d: queue should be empty", i)
		}
	}
}

func TestLCRQEnqueueBottomPanics(t *testing.T) {
	q := newSmallLCRQ(3)
	h := q.NewHandle()
	defer h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Enqueue(h, Bottom)
}

func TestLCRQModelEquivalence(t *testing.T) {
	f := func(ops []byte) bool {
		q := newSmallLCRQ(2)
		h := q.NewHandle()
		defer h.Release()
		var model []uint64
		next := uint64(1)
		for _, op := range ops {
			if op%3 != 0 { // bias toward enqueues to grow the list
				q.Enqueue(h, next)
				model = append(model, next)
				next++
			} else {
				v, ok := q.Dequeue(h)
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		for _, want := range model {
			if v, ok := q.Dequeue(h); !ok || v != want {
				return false
			}
		}
		_, ok := q.Dequeue(h)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLCRQDifferentialIAQ drives LCRQ and the Figure-2 queue with the same
// sequential op stream; they must agree exactly.
func TestLCRQDifferentialIAQ(t *testing.T) {
	f := func(ops []byte) bool {
		lq := newSmallLCRQ(2)
		lh := lq.NewHandle()
		defer lh.Release()
		iq := NewIAQ(4096)
		ih := NewHandle()
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 {
				if !iq.Enqueue(ih, next) {
					break // IAQ capacity exhausted; stop comparing
				}
				lq.Enqueue(lh, next)
				next++
			} else {
				lv, lok := lq.Dequeue(lh)
				iv, iok := iq.Dequeue(ih)
				if lok != iok || (lok && lv != iv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func lcrqStress(t *testing.T, cfg Config, producers, consumers, perProd int) {
	t.Helper()
	q := NewLCRQ(cfg)
	var wg, prodWG sync.WaitGroup
	prodWG.Add(producers)
	seen := make([][]uint64, consumers)
	var dequeued atomic.Int64
	total := int64(producers * perProd)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer prodWG.Done()
			h := q.NewHandle()
			defer h.Release()
			h.Cluster = int64(p % 2)
			for i := 0; i < perProd; i++ {
				q.Enqueue(h, uint64(p)<<32|uint64(i)|1<<63)
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			h.Cluster = int64(c % 2)
			for dequeued.Load() < total {
				if v, ok := q.Dequeue(h); ok {
					seen[c] = append(seen[c], v&^(1<<63))
					dequeued.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	got := map[uint64]int{}
	n := 0
	for _, s := range seen {
		for _, v := range s {
			got[v]++
			n++
		}
	}
	if int64(n) != total {
		t.Fatalf("dequeued %d, want %d", n, total)
	}
	for v, k := range got {
		if k != 1 {
			t.Fatalf("value %#x dequeued %d times", v, k)
		}
	}
	for c, s := range seen {
		last := map[uint64]int64{}
		for _, v := range s {
			p, i := v>>32, int64(v&0xffffffff)
			if prev, ok := last[p]; ok && i <= prev {
				t.Fatalf("consumer %d: producer %d out of order (%d after %d)", c, p, i, prev)
			}
			last[p] = i
		}
	}
}

func TestLCRQConcurrentTinyRing(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 2, NoPadding: true}, 4, 4, 3000)
}

func TestLCRQConcurrentBigRing(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 12, NoPadding: true}, 4, 4, 5000)
}

func TestLCRQConcurrentCASVariant(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 6, NoPadding: true, CASLoopFAA: true}, 3, 3, 2000)
}

func TestLCRQConcurrentHierarchical(t *testing.T) {
	lcrqStress(t, Config{
		RingOrder:      4,
		NoPadding:      true,
		Hierarchical:   true,
		ClusterTimeout: 50 * time.Microsecond,
	}, 4, 4, 1500)
}

func TestLCRQConcurrentNoRecycle(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 3, NoPadding: true, NoRecycle: true}, 4, 4, 2000)
}

func TestLCRQConcurrentNoSpinWait(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 4, NoPadding: true, SpinWait: -1}, 4, 4, 2000)
}

func TestLCRQConcurrentNoHazard(t *testing.T) {
	lcrqStress(t, Config{RingOrder: 2, NoPadding: true, NoHazard: true}, 4, 4, 2000)
}

func TestReclamationModeNormalization(t *testing.T) {
	if c := (Config{}).normalized(); c.NoHazard || c.NoRecycle {
		t.Fatal("the default configuration must reclaim with hazard pointers and recycle")
	}
	if c := (Config{NoHazard: true}).normalized(); !c.NoRecycle {
		t.Fatal("NoHazard did not imply NoRecycle")
	}
}

func TestNoHazardImpliesNoRecycle(t *testing.T) {
	q := NewLCRQ(Config{RingOrder: 1, NoHazard: true})
	if !q.Config().NoRecycle {
		t.Fatal("NoHazard must imply NoRecycle")
	}
	h := q.NewHandle()
	defer h.Release()
	// Churn rings; nothing may be recycled and nothing may crash.
	for i := uint64(1); i <= 500; i++ {
		for j := uint64(0); j < 5; j++ {
			q.Enqueue(h, i*10+j+1)
		}
		for j := uint64(0); j < 5; j++ {
			if _, ok := q.Dequeue(h); !ok {
				t.Fatal("lost value")
			}
		}
	}
	if h.C.Recycled != 0 {
		t.Fatal("NoHazard queue recycled a ring")
	}
	if h.C.Appends == 0 {
		t.Fatal("workload should have appended rings")
	}
}

// TestLCRQEnqueueDequeuePairs mimics the paper's benchmark loop shape.
func TestLCRQEnqueueDequeuePairs(t *testing.T) {
	q := newSmallLCRQ(6)
	var wg sync.WaitGroup
	workers := 8
	var balance atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < 3000; i++ {
				q.Enqueue(h, uint64(w*1_000_000+i)+1)
				balance.Add(1)
				if _, ok := q.Dequeue(h); ok {
					balance.Add(-1)
				}
			}
		}(w)
	}
	wg.Wait()
	// Whatever remains in the queue must equal the enqueue/dequeue balance.
	h := q.NewHandle()
	defer h.Release()
	rest := int64(0)
	for {
		if _, ok := q.Dequeue(h); !ok {
			break
		}
		rest++
	}
	if rest != balance.Load() {
		t.Fatalf("queue had %d leftovers, balance says %d", rest, balance.Load())
	}
}

func TestLCRQRecyclingReusesRings(t *testing.T) {
	// R = 2 and batches of 5 force each batch to close rings and append new
	// ones; draining swings the head and retires the old rings, which the
	// recycler then hands back to later appends.
	q := NewLCRQ(Config{RingOrder: 1, NoPadding: true})
	h := q.NewHandle()
	defer h.Release()
	next, expect := uint64(1), uint64(1)
	for i := 0; i < 200; i++ {
		for j := 0; j < 5; j++ {
			q.Enqueue(h, next)
			next++
		}
		for j := 0; j < 5; j++ {
			v, ok := q.Dequeue(h)
			if !ok || v != expect {
				t.Fatalf("batch %d: got (%d,%v), want %d", i, v, ok, expect)
			}
			expect++
		}
	}
	if h.C.Appends == 0 {
		t.Fatal("workload never appended a ring")
	}
	if h.C.Recycled == 0 {
		t.Fatal("expected some rings to be recycled")
	}
}

// TestIdleHandleRingsRecycledAfterRelease pins the memory bound of sticky
// hazard slots: a handle that goes idle keeps at most the two rings its
// slots last protected (hpHead, hpTail) from the recycler, however far
// another handle churns, and its Release lets them through. The ring-
// bounded input shows that the held rings do not eat the ring budget: they
// are unlinked, so a bounded queue keeps accepting around an idle handle.
func TestIdleHandleRingsRecycledAfterRelease(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxRings int
	}{{"unbounded", 0}, {"max-rings-4", 4}} {
		t.Run(tc.name, func(t *testing.T) { idleHandleRings(t, tc.maxRings) })
	}
}

func idleHandleRings(t *testing.T, maxRings int) {
	// R = 2 appends a ring every few enqueues; a scan threshold of 1 scans
	// a retired list as soon as it holds one entry per record.
	q := NewLCRQ(Config{RingOrder: 1, NoPadding: true, MaxRings: maxRings})
	q.dom.SetScanThreshold(1)
	var handles []*Handle
	newHandle := func() *Handle {
		h := q.NewHandle()
		handles = append(handles, h)
		return h
	}
	next, expect := uint64(1), uint64(1)
	enq := func(h *Handle) {
		if !q.Enqueue(h, next) {
			t.Fatalf("enqueue %d rejected", next)
		}
		next++
	}
	deq := func(h *Handle) {
		if v, ok := q.Dequeue(h); !ok || v != expect {
			t.Fatalf("dequeue = %d,%v, want %d,true", v, ok, expect)
		}
		expect++
	}
	churn := func(h *Handle, rounds int) {
		for i := 0; i < rounds; i++ {
			for j := 0; j < 5; j++ {
				enq(h)
			}
			for j := 0; j < 5; j++ {
				deq(h)
			}
			if maxRings > 0 && q.LiveRings() > int64(maxRings) {
				t.Fatalf("round %d: LiveRings = %d exceeds budget %d", i, q.LiveRings(), maxRings)
			}
		}
	}
	// held counts rings unlinked from the list but not yet handed to the
	// recycler. Every ring but the first was appended, and every unlinked
	// one retired.
	held := func() int64 {
		appends := uint64(0)
		for _, h := range handles {
			appends += h.C.Appends
		}
		retired := 1 + int64(appends) - q.LiveRings()
		return retired - int64(q.recPuts.Load())
	}

	idle, active := newHandle(), newHandle()
	// The idle handle appends rings with enqueues alone, so it retires
	// nothing itself, then dequeues once from the head ring. Its tail slot
	// is left on a later ring than its head slot. Seven items fill exactly
	// four rings, so the prelude fits the bounded input's budget.
	for i := 0; i < 7; i++ {
		enq(idle)
	}
	deq(idle)
	if idle.C.Appends == 0 {
		t.Fatal("idle handle never appended a ring")
	}
	// The active handle drains past every ring the idle one touched and
	// churns on; Release clears its own slots and scans its retired list,
	// so only what the idle handle's slots protect stays out of the pool.
	for expect < next {
		deq(active)
	}
	churn(active, 200)
	active.Release()
	n := held()
	if n > 2 {
		t.Fatalf("idle handle holds %d retired rings from the recycler, want at most 2", n)
	}
	if n == 0 {
		t.Fatal("idle handle held no retired ring; the scenario is vacuous")
	}
	t.Logf("idle handle held %d retired rings", n)

	idle.Release()
	// Fresh handles reuse both records; churning on each scans whichever
	// retired list kept the idle handle's rings.
	h1, h2 := newHandle(), newHandle()
	churn(h1, 20)
	churn(h2, 20)
	h1.Release()
	h2.Release()
	if n := held(); n != 0 {
		t.Fatalf("%d retired rings never reached the recycler after the idle handle's Release", n)
	}
	if h1.C.Recycled+h2.C.Recycled == 0 || q.RecyclerSize() == 0 {
		t.Fatal("no ring went through the recycler")
	}
}

func TestLCRQHandleRelease(t *testing.T) {
	q := newSmallLCRQ(3)
	h := q.NewHandle()
	q.Enqueue(h, 1)
	h.Release()
	h2 := q.NewHandle()
	defer h2.Release()
	if v, ok := q.Dequeue(h2); !ok || v != 1 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
	// Releasing a detached handle must not panic.
	NewHandle().Release()
}

func TestLCRQConfigAccessor(t *testing.T) {
	q := NewLCRQ(Config{RingOrder: 7})
	if q.Config().RingOrder != 7 {
		t.Fatal("config not retained")
	}
	if q.Config().StarvationLimit != DefaultStarvationLimit {
		t.Fatal("config not normalized")
	}
}
