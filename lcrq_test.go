package lcrq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestQueueBasic(t *testing.T) {
	q := New()
	h := q.NewHandle()
	defer h.Release()
	if _, ok := h.Dequeue(); ok {
		t.Fatal("fresh queue not empty")
	}
	for i := uint64(0); i < 100; i++ {
		h.Enqueue(i)
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
}

func TestQueueZeroValueAllowed(t *testing.T) {
	q := New()
	h := q.NewHandle()
	defer h.Release()
	h.Enqueue(0)
	if v, ok := h.Dequeue(); !ok || v != 0 {
		t.Fatalf("got (%d,%v), want (0,true)", v, ok)
	}
}

func TestQueueReservedPanics(t *testing.T) {
	q := New()
	h := q.NewHandle()
	defer h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Enqueue(Reserved)
}

func TestQueueConvenienceMethods(t *testing.T) {
	q := New(WithRingSize(64))
	q.Enqueue(1)
	q.Enqueue(2)
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
	if v, ok := q.Dequeue(); !ok || v != 2 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestQueueDrain(t *testing.T) {
	q := New()
	for i := uint64(0); i < 50; i++ {
		q.Enqueue(i)
	}
	var sum uint64
	n := q.Drain(func(v uint64) { sum += v })
	if n != 50 || sum != 49*50/2 {
		t.Fatalf("Drain = %d (sum %d)", n, sum)
	}
	if q.Drain(nil) != 0 {
		t.Fatal("second drain should find nothing")
	}
}

func TestOptionsApply(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"ring size", []Option{WithRingSize(100)}}, // rounds to 128
		{"ring order", []Option{WithRingOrder(5)}},
		{"cas loop", []Option{WithCASLoopFAA()}},
		{"hierarchical", []Option{WithHierarchical(time.Millisecond)}},
		{"no padding", []Option{WithoutPadding()}},
		{"no recycling", []Option{WithoutRecycling()}},
		{"no hazard", []Option{WithoutHazardPointers(), WithRingSize(8)}},
		{"spin", []Option{WithSpinWait(3)}},
		{"starvation", []Option{WithStarvationLimit(5)}},
		{"tiny ring", []Option{WithRingSize(1)}}, // clamps to 2
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := New(c.opts...)
			h := q.NewHandle()
			defer h.Release()
			for i := uint64(0); i < 300; i++ {
				h.Enqueue(i)
			}
			for i := uint64(0); i < 300; i++ {
				v, ok := h.Dequeue()
				if !ok || v != i {
					t.Fatalf("got (%d,%v), want %d", v, ok, i)
				}
			}
		})
	}
}

func TestStatsSnapshot(t *testing.T) {
	q := New()
	h := q.NewHandle()
	defer h.Release()
	for i := uint64(0); i < 10; i++ {
		h.Enqueue(i)
	}
	for i := uint64(0); i < 12; i++ {
		h.Dequeue()
	}
	s := h.Stats()
	if s.Enqueues != 10 || s.Dequeues != 12 || s.Empty != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if s.FetchAdds == 0 || s.CAS2Attempts == 0 {
		t.Fatalf("instruction counts empty: %+v", s)
	}
	if s.AtomicsPerOp <= 0 {
		t.Fatalf("AtomicsPerOp = %v", s.AtomicsPerOp)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Enqueues: 2, Dequeues: 2, AtomicsPerOp: 2, FetchAdds: 8}
	b := Stats{Enqueues: 6, Dequeues: 6, AtomicsPerOp: 4, FetchAdds: 48}
	c := a.Add(b)
	if c.Enqueues != 8 || c.FetchAdds != 56 {
		t.Fatalf("sum: %+v", c)
	}
	// Weighted average: (2*4 + 4*12)/16 = 3.5
	if c.AtomicsPerOp != 3.5 {
		t.Fatalf("AtomicsPerOp = %v, want 3.5", c.AtomicsPerOp)
	}
	var zero Stats
	if z := zero.Add(zero); z.AtomicsPerOp != 0 {
		t.Fatal("zero add produced nonzero average")
	}
}

func TestPooledHandlesSurviveGC(t *testing.T) {
	q := New(WithRingSize(64))
	// Interleave pooled convenience calls with forced GCs: dropped pool
	// entries run their finalizers (releasing reclamation records) and the
	// queue must stay fully functional.
	for round := uint64(0); round < 10; round++ {
		for i := uint64(0); i < 100; i++ {
			q.Enqueue(round*1000 + i)
		}
		runtime.GC()
		for i := uint64(0); i < 100; i++ {
			if _, ok := q.Dequeue(); !ok {
				t.Fatalf("round %d: lost value %d", round, i)
			}
		}
		runtime.GC()
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue should be empty")
	}
	// Double release is a guarded bug: the second call must panic (see
	// TestDoubleReleasePanicsPublic) rather than hand the reclamation
	// record out twice. Pooled handles are never explicitly released, so
	// their finalizer-driven Release runs at most once.
	h := q.NewHandle()
	h.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Release did not panic")
			}
		}()
		h.Release()
	}()
}

func TestQueueConcurrentSmoke(t *testing.T) {
	q := New(WithRingSize(64))
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	var consumed atomic.Int64
	var sum atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < per; i++ {
				h.Enqueue(uint64(w*per+i) + 1)
				if v, ok := h.Dequeue(); ok {
					sum.Add(v)
					consumed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	rest := q.Drain(func(v uint64) { sum.Add(v); consumed.Add(1) })
	_ = rest
	if consumed.Load() != workers*per {
		t.Fatalf("consumed %d, want %d", consumed.Load(), workers*per)
	}
	n := uint64(workers * per)
	if sum.Load() != n*(n+1)/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), n*(n+1)/2)
	}
}

func TestTypedBasic(t *testing.T) {
	type item struct {
		s string
		n int
	}
	q := NewTyped[item](WithRingSize(16))
	h := q.NewHandle()
	defer h.Release()
	h.Enqueue(item{"a", 1})
	h.Enqueue(item{"b", 2})
	v, ok := h.Dequeue()
	if !ok || v.s != "a" || v.n != 1 {
		t.Fatalf("got (%+v,%v)", v, ok)
	}
	v, ok = h.Dequeue()
	if !ok || v.s != "b" {
		t.Fatalf("got (%+v,%v)", v, ok)
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("typed queue should be empty")
	}
}

func TestTypedPointersAndZeroing(t *testing.T) {
	q := NewTyped[*int]()
	h := q.NewHandle()
	defer h.Release()
	x := 7
	h.Enqueue(&x)
	p, ok := h.Dequeue()
	if !ok || p == nil || *p != 7 {
		t.Fatal("pointer round trip failed")
	}
	// The slot must have been zeroed so the arena does not retain *x.
	idx := uint64(0) // first slot handed out
	if got := *q.slot(idx); got != nil {
		t.Fatal("slot not cleared after dequeue")
	}
}

func TestTypedGrowth(t *testing.T) {
	q := NewTyped[int](WithRingSize(1 << 14))
	h := q.NewHandle()
	defer h.Release()
	const n = 3 * chunkSize // forces multiple arena growths
	for i := 0; i < n; i++ {
		h.Enqueue(i)
	}
	for i := 0; i < n; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
	if len(*q.arr.Load()) < 3 {
		t.Fatalf("arena has %d chunks, want >= 3", len(*q.arr.Load()))
	}
}

func TestTypedSlotReuse(t *testing.T) {
	q := NewTyped[int]()
	h := q.NewHandle()
	defer h.Release()
	for round := 0; round < 5; round++ {
		for i := 0; i < 100; i++ {
			h.Enqueue(round*1000 + i)
		}
		for i := 0; i < 100; i++ {
			v, ok := h.Dequeue()
			if !ok || v != round*1000+i {
				t.Fatalf("round %d: got (%d,%v)", round, v, ok)
			}
		}
	}
	// Steady state must not have grown beyond one chunk.
	if len(*q.arr.Load()) != 1 {
		t.Fatalf("arena grew to %d chunks for a 100-item working set", len(*q.arr.Load()))
	}
}

func TestTypedConvenience(t *testing.T) {
	q := NewTyped[string]()
	q.Enqueue("x")
	if v, ok := q.Dequeue(); !ok || v != "x" {
		t.Fatalf("got (%q,%v)", v, ok)
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("should be empty")
	}
}

func TestTypedConcurrent(t *testing.T) {
	q := NewTyped[[2]uint32](WithRingSize(256))
	const producers, consumers, per = 4, 4, 3000
	var wg, pwg sync.WaitGroup
	pwg.Add(producers)
	var got sync.Map
	var count atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer pwg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < per; i++ {
				h.Enqueue([2]uint32{uint32(p), uint32(i)})
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for count.Load() < producers*per {
				if v, ok := h.Dequeue(); ok {
					if _, dup := got.LoadOrStore(v, true); dup {
						t.Errorf("duplicate value %v", v)
						return
					}
					count.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if count.Load() != producers*per {
		t.Fatalf("consumed %d, want %d", count.Load(), producers*per)
	}
}

func TestQueueQuickFIFO(t *testing.T) {
	f := func(vals []uint32, deqPattern []bool) bool {
		q := New(WithRingSize(8))
		h := q.NewHandle()
		defer h.Release()
		var model []uint64
		vi := 0
		for _, deq := range deqPattern {
			if deq || vi >= len(vals) {
				v, ok := h.Dequeue()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else if !ok || v != model[0] {
					return false
				} else {
					model = model[1:]
				}
			} else {
				h.Enqueue(uint64(vals[vi]))
				model = append(model, uint64(vals[vi]))
				vi++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
