package lcrq

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPacked32Basic(t *testing.T) {
	q := NewPacked32(0)
	h := q.NewHandle()
	defer h.Release()
	if _, ok := h.Dequeue(); ok {
		t.Fatal("fresh queue not empty")
	}
	for i := uint32(0); i < 200; i++ {
		h.Enqueue(i)
	}
	for i := uint32(0); i < 200; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("got (%d,%v), want %d", v, ok, i)
		}
	}
}

func TestPacked32DefaultOrder(t *testing.T) {
	q := NewPacked32(0)
	h := q.NewHandle()
	defer h.Release()
	// 2^12 default geometry: 5000 items must not need a segment append.
	for i := uint32(0); i < 4000; i++ {
		h.Enqueue(i)
	}
	if s := h.Stats(); s.Appends != 0 {
		t.Fatalf("default-order queue appended %d segments for 4000 items", s.Appends)
	}
}

func TestPacked32ReservedPanics(t *testing.T) {
	q := NewPacked32(4)
	h := q.NewHandle()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Enqueue(Reserved32)
}

func TestPacked32StatsWired(t *testing.T) {
	q := NewPacked32(2)
	h := q.NewHandle()
	for i := uint32(0); i < 100; i++ {
		h.Enqueue(i)
	}
	for i := 0; i < 100; i++ {
		h.Dequeue()
	}
	s := h.Stats()
	if s.Enqueues != 100 || s.Dequeues != 100 {
		t.Fatalf("stats: %+v", s)
	}
	if s.FAA == 0 || s.Appends == 0 {
		t.Fatalf("tiny ring should append segments: %+v", s)
	}
}

func TestPacked32Concurrent(t *testing.T) {
	q := NewPacked32(4)
	const producers, consumers, per = 4, 4, 3000
	var wg sync.WaitGroup
	var count atomic.Int64
	var got sync.Map
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			for i := 0; i < per; i++ {
				h.Enqueue(uint32(p)<<16 | uint32(i))
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
						t.Errorf("duplicate %#x", v)
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
