package core

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"lcrq/internal/atomic128"
	"lcrq/internal/pad"
)

// smallCfg keeps rings tiny so wraparound and closing paths are exercised.
func smallCfg(order int) Config {
	return Config{RingOrder: order, NoPadding: true}
}

func TestCRQSequentialFIFO(t *testing.T) {
	q := NewCRQ(smallCfg(4))
	h := NewHandle()
	for i := uint64(0); i < 10; i++ {
		if !q.Enqueue(h, i+100) {
			t.Fatalf("enqueue %d returned CLOSED", i)
		}
	}
	for i := uint64(0); i < 10; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i+100 {
			t.Fatalf("dequeue %d = (%d,%v), want (%d,true)", i, v, ok, i+100)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("dequeue from empty ring returned a value")
	}
}

func TestCRQEmptyOnFresh(t *testing.T) {
	q := NewCRQ(smallCfg(3))
	h := NewHandle()
	for i := 0; i < 3; i++ {
		if v, ok := q.Dequeue(h); ok {
			t.Fatalf("fresh ring returned %d", v)
		}
	}
	// After EMPTY dequeues, fixState must leave head ≤ tail so enqueues
	// still work.
	if !q.Enqueue(h, 1) {
		t.Fatal("enqueue after empty dequeues failed")
	}
	if v, ok := q.Dequeue(h); !ok || v != 1 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

func TestCRQWraparound(t *testing.T) {
	q := NewCRQ(smallCfg(2)) // R = 4
	h := NewHandle()
	// Cycle many laps through the 4-cell ring.
	for lap := uint64(0); lap < 50; lap++ {
		for i := uint64(0); i < 3; i++ {
			if !q.Enqueue(h, lap*10+i+1) {
				t.Fatalf("lap %d: ring closed unexpectedly", lap)
			}
		}
		for i := uint64(0); i < 3; i++ {
			v, ok := q.Dequeue(h)
			if !ok || v != lap*10+i+1 {
				t.Fatalf("lap %d: got (%d,%v), want %d", lap, v, ok, lap*10+i+1)
			}
		}
	}
}

func TestCRQClosesWhenFull(t *testing.T) {
	q := NewCRQ(smallCfg(2)) // R = 4
	h := NewHandle()
	accepted := 0
	for i := uint64(0); i < 100; i++ {
		if !q.Enqueue(h, i+1) {
			break
		}
		accepted++
	}
	if accepted != 4 {
		t.Fatalf("ring of 4 accepted %d items", accepted)
	}
	if !q.Closed() {
		t.Fatal("full ring not closed")
	}
	// Tantrum semantics: closed forever.
	if q.Enqueue(h, 999) {
		t.Fatal("enqueue succeeded on closed ring")
	}
	// Items remain dequeuable after close.
	for i := uint64(0); i < 4; i++ {
		v, ok := q.Dequeue(h)
		if !ok || v != i+1 {
			t.Fatalf("drain after close: got (%d,%v), want %d", v, ok, i+1)
		}
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("drained closed ring still returned a value")
	}
}

func TestCRQEnqueueBottomPanics(t *testing.T) {
	q := NewCRQ(smallCfg(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Enqueue(NewHandle(), Bottom)
}

func TestCRQSeed(t *testing.T) {
	q := NewCRQ(smallCfg(3))
	q.seed(42)
	h := NewHandle()
	v, ok := q.Dequeue(h)
	if !ok || v != 42 {
		t.Fatalf("seeded ring: got (%d,%v)", v, ok)
	}
	if _, ok := q.Dequeue(h); ok {
		t.Fatal("seeded ring had more than one item")
	}
	// Ring remains usable after the seed is consumed.
	if !q.Enqueue(h, 7) {
		t.Fatal("enqueue after seed failed")
	}
	if v, ok := q.Dequeue(h); !ok || v != 7 {
		t.Fatalf("got (%d,%v)", v, ok)
	}
}

func TestCRQReset(t *testing.T) {
	q := NewCRQ(smallCfg(2))
	h := NewHandle()
	for i := uint64(0); i < 4; i++ {
		q.Enqueue(h, i+1)
	}
	q.Enqueue(h, 99) // closes
	if !q.Closed() {
		t.Fatal("expected closed")
	}
	for {
		if _, ok := q.Dequeue(h); !ok {
			break
		}
	}
	q.reset()
	if q.Closed() {
		t.Fatal("reset ring still closed")
	}
	if q.head.Load() != 0 || q.tail.Load() != 0 {
		t.Fatal("reset did not zero indices")
	}
	for i := uint64(0); i < 4; i++ {
		if !q.Enqueue(h, i+50) {
			t.Fatal("reset ring rejected enqueue")
		}
	}
	for i := uint64(0); i < 4; i++ {
		if v, ok := q.Dequeue(h); !ok || v != i+50 {
			t.Fatalf("got (%d,%v), want %d", v, ok, i+50)
		}
	}
}

// TestCRQCellLayout pins the CAS2 ring's cell layout: R dense cells, a
// bijective index → cell map, and in the default (remapped) layout no two
// consecutive indices — including the lap wrap R−1 → R — sharing a
// false-sharing range. From order 5 they are also a full range apart; at
// order 4 no ordering of 16 cells can do that (cell 8's two neighbours
// would both have to be cell 0), so there the range-aligned slab is what
// keeps them apart. NoPadding is the identity map.
func TestCRQCellLayout(t *testing.T) {
	addr := func(c *atomic128.Uint128) uintptr { return uintptr(unsafe.Pointer(c)) }
	for order := 1; order <= 14; order++ {
		q := NewCRQ(Config{RingOrder: order})
		r := uint64(q.Size())
		if uint64(len(q.slab)) != r {
			t.Fatalf("order %d: len(slab) = %d, want R = %d", order, len(q.slab), r)
		}
		if addr(&q.slab[0])%pad.FalseSharingRange != 0 {
			t.Fatalf("order %d: slab does not start a false-sharing range", order)
		}
		seen := make([]bool, r)
		for i := uint64(0); i < r; i++ {
			slot := uint64(addr(q.cell(i))-addr(&q.slab[0])) / 16
			if slot >= r || seen[slot] {
				t.Fatalf("order %d: index %d maps to cell %d, out of range or taken", order, i, slot)
			}
			seen[slot] = true
			if q.cell(i) != q.cell(i+r) {
				t.Fatalf("order %d: indices %d and %d map to different cells", order, i, i+r)
			}
			if order < 4 {
				continue
			}
			a, b := addr(q.cell(i)), addr(q.cell(i+1))
			if a/pad.FalseSharingRange == b/pad.FalseSharingRange {
				t.Fatalf("order %d: indices %d and %d share a false-sharing range", order, i, i+1)
			}
			if d := max(a, b) - min(a, b); order >= 5 && d < pad.FalseSharingRange {
				t.Fatalf("order %d: indices %d and %d are %d B apart, want ≥ %d", order, i, i+1, d, pad.FalseSharingRange)
			}
		}

		adj := NewCRQ(Config{RingOrder: order, NoPadding: true})
		for i := uint64(0); i < 2*r; i++ {
			if adj.cell(i) != &adj.slab[i%r] {
				t.Fatalf("order %d: NoPadding maps index %d off the identity", order, i)
			}
		}
	}

	// FIFO through three laps of the smallest remapped ring.
	q := NewCRQ(Config{RingOrder: 4})
	h := NewHandle()
	for i := uint64(1); i <= 48; i++ {
		if !q.Enqueue(h, i) {
			t.Fatalf("enqueue %d failed", i)
		}
		if v, ok := q.Dequeue(h); !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
}

func TestCRQSizeAndConfig(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 5})
	if q.Size() != 32 {
		t.Fatalf("Size = %d, want 32", q.Size())
	}
	if (Config{}).RingSize() != 1<<DefaultRingOrder {
		t.Fatal("default ring size wrong")
	}
	if (Config{RingOrder: 99}).RingSize() != 1<<MaxRingOrder {
		t.Fatal("ring order not clamped")
	}
	if (Config{RingOrder: -3}).RingSize() != 2 {
		t.Fatal("negative ring order not clamped to 1")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{StarvationLimit: -5, SpinWait: -1}.normalized()
	if c.StarvationLimit != 1 {
		t.Fatalf("StarvationLimit = %d", c.StarvationLimit)
	}
	if c.SpinWait != 0 {
		t.Fatalf("SpinWait = %d", c.SpinWait)
	}
	if c.ClusterTimeout != DefaultClusterTimeout {
		t.Fatalf("ClusterTimeout = %v", c.ClusterTimeout)
	}
	d := Config{}.normalized()
	if d.StarvationLimit != DefaultStarvationLimit || d.SpinWait != DefaultSpinWait {
		t.Fatal("defaults not applied")
	}
}

// TestCRQInterleavedModel drives a CRQ and a slice-based model queue with a
// random sequence of operations and demands identical behaviour until the
// ring closes.
func TestCRQInterleavedModel(t *testing.T) {
	f := func(ops []byte) bool {
		q := NewCRQ(smallCfg(3)) // R = 8
		h := NewHandle()
		var model []uint64
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 {
				if q.Closed() {
					break
				}
				ok := q.Enqueue(h, next)
				if !ok {
					// Tantrum: allowed at any time; stop comparing enqueues.
					break
				}
				model = append(model, next)
				next++
			} else {
				v, ok := q.Dequeue(h)
				if len(model) == 0 {
					if ok {
						return false // dequeued from empty
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		// Drain: remaining model items must come out in order.
		for _, want := range model {
			v, ok := q.Dequeue(h)
			if !ok || v != want {
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

// TestCRQConcurrentNoLossNoDup runs enqueuers and dequeuers concurrently on
// one ring sized to hold everything, checking that every enqueued value is
// dequeued exactly once.
func TestCRQConcurrentNoLossNoDup(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 2000
	)
	q := NewCRQ(Config{RingOrder: 14, NoPadding: true}) // 16384 ≥ 8000
	var wg sync.WaitGroup
	seen := make([][]uint64, consumers)
	var done sync.WaitGroup
	done.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer done.Done()
			h := NewHandle()
			for i := 0; i < perProd; i++ {
				v := uint64(p)<<32 | uint64(i)
				if !q.Enqueue(h, v+1) {
					t.Errorf("ring closed during test")
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := NewHandle()
			for {
				v, ok := q.Dequeue(h)
				if ok {
					seen[c] = append(seen[c], v-1)
					continue
				}
				select {
				case <-stop:
					// Producers done; one more pass to drain stragglers.
					if v, ok := q.Dequeue(h); ok {
						seen[c] = append(seen[c], v-1)
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()
	got := map[uint64]int{}
	total := 0
	for _, s := range seen {
		for _, v := range s {
			got[v]++
			total++
		}
	}
	if total != producers*perProd {
		t.Fatalf("dequeued %d items, want %d", total, producers*perProd)
	}
	for v, n := range got {
		if n != 1 {
			t.Fatalf("value %#x dequeued %d times", v, n)
		}
	}
	// Per-producer FIFO: each consumer must see each producer's items in
	// increasing sequence order.
	for c, s := range seen {
		last := map[uint64]int64{}
		for _, v := range s {
			p, i := v>>32, int64(v&0xffffffff)
			if prev, ok := last[p]; ok && i <= prev {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d", c, p, i, prev)
			}
			last[p] = i
		}
	}
}

// TestCRQUnsafeTransitionPath forces the "dequeue arrives a lap early at an
// occupied cell" case: with R=1 every index maps to the same cell.
func TestCRQUnsafeTransitionPath(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 1, NoPadding: true, SpinWait: -1, StarvationLimit: 1000}) // R = 2
	h := NewHandle()
	if !q.Enqueue(h, 11) {
		t.Fatal("enqueue failed")
	}
	if !q.Enqueue(h, 22) {
		t.Fatal("enqueue failed")
	}
	// Dequeue both; then dequeue empty to advance head ahead, then enqueue
	// and dequeue again to cross the unsafe/empty transition machinery.
	if v, _ := q.Dequeue(h); v != 11 {
		t.Fatalf("got %d", v)
	}
	if v, _ := q.Dequeue(h); v != 22 {
		t.Fatalf("got %d", v)
	}
	for i := 0; i < 5; i++ {
		if _, ok := q.Dequeue(h); ok {
			t.Fatal("unexpected value")
		}
	}
	ok1 := q.Enqueue(h, 33)
	if ok1 {
		if v, ok := q.Dequeue(h); !ok || v != 33 {
			t.Fatalf("got (%d,%v)", v, ok)
		}
	} else if !q.Closed() {
		t.Fatal("enqueue failed but ring not closed")
	}
}

func TestCRQCASLoopVariant(t *testing.T) {
	q := NewCRQ(Config{RingOrder: 4, NoPadding: true, CASLoopFAA: true})
	h := NewHandle()
	for i := uint64(0); i < 10; i++ {
		if !q.Enqueue(h, i+1) {
			t.Fatal("closed")
		}
	}
	for i := uint64(0); i < 10; i++ {
		if v, ok := q.Dequeue(h); !ok || v != i+1 {
			t.Fatalf("got (%d,%v)", v, ok)
		}
	}
	if h.C.FAA != 0 {
		t.Fatalf("CAS-loop variant issued %d F&As", h.C.FAA)
	}
	if h.C.CAS == 0 {
		t.Fatal("CAS-loop variant issued no CASes")
	}
}

func TestCRQCountersPlausible(t *testing.T) {
	q := NewCRQ(smallCfg(8))
	h := NewHandle()
	const n = 100
	for i := uint64(0); i < n; i++ {
		q.Enqueue(h, i+1)
	}
	for i := uint64(0); i < n; i++ {
		q.Dequeue(h)
	}
	// Uncontended: one F&A and one CAS2 per operation.
	if h.C.FAA != 2*n {
		t.Fatalf("FAA = %d, want %d", h.C.FAA, 2*n)
	}
	if h.C.CAS2 != 2*n || h.C.CAS2Fail != 0 {
		t.Fatalf("CAS2 = %d (fail %d), want %d (0)", h.C.CAS2, h.C.CAS2Fail, 2*n)
	}
}
