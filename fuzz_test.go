package lcrq

// Native Go fuzz targets. The seed corpus below runs as part of the normal
// test suite; `go test -fuzz=FuzzQueueModel .` explores further.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzQueueModel interprets the fuzz input as an op tape — even bytes
// enqueue, odd bytes dequeue — and cross-checks the queue against a slice
// model. The low bits of each byte choose the queue geometry, so the fuzzer
// also explores tiny rings, CAS-loop mode, and disabled spin waits.
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1}, uint8(0))
	f.Add([]byte{2, 2, 2, 3, 3, 3, 2, 3}, uint8(1))
	f.Add([]byte{1, 1, 1, 0, 0, 0}, uint8(2))
	f.Add([]byte{0, 2, 4, 6, 1, 3, 5, 7, 9, 11}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, geom uint8) {
		opts := []Option{WithRingSize(2 << (geom % 4))}
		if geom&4 != 0 {
			opts = append(opts, WithCASLoopFAA())
		}
		if geom&8 != 0 {
			opts = append(opts, WithSpinWait(-1))
		}
		if geom&16 != 0 {
			opts = append(opts, WithoutRecycling())
		}
		q := New(opts...)
		h := q.NewHandle()
		defer h.Release()
		var model []uint64
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 {
				h.Enqueue(next)
				model = append(model, next)
				next++
			} else {
				v, ok := h.Dequeue()
				switch {
				case len(model) == 0 && ok:
					t.Fatalf("dequeue from empty returned %d", v)
				case len(model) > 0 && (!ok || v != model[0]):
					t.Fatalf("dequeue = (%d,%v), want (%d,true)", v, ok, model[0])
				case len(model) > 0:
					model = model[1:]
				}
			}
		}
		// Drain and verify the remainder.
		for _, want := range model {
			v, ok := h.Dequeue()
			if !ok || v != want {
				t.Fatalf("drain = (%d,%v), want (%d,true)", v, ok, want)
			}
		}
		if v, ok := h.Dequeue(); ok {
			t.Fatalf("extra value %d after drain", v)
		}
	})
}

// FuzzCloseDrain interleaves Close with concurrent producers and a
// concurrent DequeueWait consumer, then checks conservation: every accepted
// enqueue is consumed exactly once, in per-producer FIFO order, and no
// enqueue is accepted after the close has drained. The fuzzer varies the
// producer count, ring geometry, and how much traffic precedes the close.
func FuzzCloseDrain(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint16(40))
	f.Add(uint8(4), uint8(3), uint16(0))
	f.Add(uint8(1), uint8(9), uint16(300))
	f.Fuzz(func(t *testing.T, prod, geom uint8, closeAfter uint16) {
		const perProd = 256
		nprod := int(prod%4) + 1
		target := uint64(closeAfter) % (uint64(nprod)*perProd + 1)
		opts := []Option{WithRingSize(2 << (geom % 4))}
		if geom&16 != 0 {
			opts = append(opts, WithoutHazardPointers())
		}
		if geom&32 != 0 {
			opts = append(opts, WithStarvationLimit(2))
		}
		q := New(opts...)

		accepted := make([]uint64, nprod)
		var total atomic.Uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < nprod; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h := q.NewHandle()
				defer h.Release()
				<-start
				for i := 0; i < perProd; i++ {
					if !h.Enqueue(uint64(p)<<32 | uint64(i) + 1) {
						return // closed
					}
					accepted[p]++
					total.Add(1)
				}
			}(p)
		}

		// Concurrent consumer: DequeueWait until ErrClosed. Its log is the
		// FIFO prefix; the post-join drain is the suffix.
		consumed := make([][]uint64, nprod)
		consumerDone := make(chan error, 1)
		ch := q.NewHandle()
		go func() {
			for {
				v, err := ch.DequeueWait(context.Background())
				if err != nil {
					consumerDone <- err
					return
				}
				p := int(v >> 32)
				consumed[p] = append(consumed[p], v&0xffffffff)
			}
		}()

		close(start)
		// Close once enough traffic has been accepted (or immediately when
		// target is 0). Producers are bounded, so waiting on min(target,
		// all-accepted) terminates either way.
		for total.Load() < target && total.Load() < uint64(nprod)*perProd {
			runtime.Gosched()
		}
		q.Close()
		if err := <-consumerDone; !errors.Is(err, ErrClosed) {
			t.Fatalf("consumer finished with %v, want ErrClosed", err)
		}
		ch.Release()
		wg.Wait()

		// Post-join drain catches items from enqueues that were concurrent
		// with Close and landed after the consumer saw closed+empty.
		q.Drain(func(v uint64) {
			p := int(v >> 32)
			consumed[p] = append(consumed[p], v&0xffffffff)
		})
		if q.Enqueue(1) {
			t.Fatal("enqueue accepted after close and drain")
		}
		for p := 0; p < nprod; p++ {
			if uint64(len(consumed[p])) != accepted[p] {
				t.Fatalf("producer %d: accepted %d, consumed %d", p, accepted[p], len(consumed[p]))
			}
			for i, v := range consumed[p] {
				if v != uint64(i)+1 {
					t.Fatalf("producer %d: consumed[%d] = %d, want %d (loss, duplication, or reorder)",
						p, i, v, i+1)
				}
			}
		}
	})
}

// FuzzBoundedCapacity drives a capacity-bounded queue against a model and
// checks the backpressure contract: the number of items in flight never
// exceeds the bound (the exact Items account agrees with the model at every
// step), a full queue rejects with ErrFull exactly, and FIFO order survives
// arbitrary reject/retry interleavings. The fuzzer varies the op tape, the
// capacity, and the ring geometry — including rings far smaller than the
// capacity, which exercises the derived ring budget.
func FuzzBoundedCapacity(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 1}, uint8(2), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(1))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 0, 0, 1}, uint8(7), uint8(2))
	f.Add([]byte{0, 0, 1, 1, 0, 0, 1, 1}, uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, ops []byte, capSel, geom uint8) {
		capacity := int64(capSel%16) + 1
		opts := []Option{
			WithRingSize(2 << (geom % 4)),
			WithCapacity(capacity),
		}
		if geom&16 != 0 {
			opts = append(opts, WithoutHazardPointers())
		}
		q := New(opts...)
		h := q.NewHandle()
		defer h.Release()
		var model []uint64
		next := uint64(1)
		for _, op := range ops {
			if op%2 == 0 {
				err := h.TryEnqueue(next)
				switch {
				case err == nil:
					model = append(model, next)
					next++
					if int64(len(model)) > capacity {
						t.Fatalf("queue accepted %d items past capacity %d", len(model), capacity)
					}
				case errors.Is(err, ErrFull):
					if int64(len(model)) < capacity {
						// The ring budget may bind before the item budget
						// only when rings are small; with the derived
						// budget (one spare ring) a single-threaded tape
						// must always fit capacity items.
						t.Fatalf("rejected with %d/%d items in flight", len(model), capacity)
					}
				default:
					t.Fatalf("TryEnqueue = %v", err)
				}
			} else {
				v, ok := h.Dequeue()
				switch {
				case len(model) == 0 && ok:
					t.Fatalf("dequeue from empty returned %d", v)
				case len(model) > 0 && (!ok || v != model[0]):
					t.Fatalf("dequeue = (%d,%v), want (%d,true)", v, ok, model[0])
				case len(model) > 0:
					model = model[1:]
				}
			}
			if got := q.Metrics().Items; got != int64(len(model)) {
				t.Fatalf("Items = %d, model holds %d", got, len(model))
			}
		}
		// A full queue must become writable again after one dequeue…
		for int64(len(model)) < capacity {
			if err := h.TryEnqueue(next); err != nil {
				t.Fatalf("refill: %v", err)
			}
			model = append(model, next)
			next++
		}
		if err := h.TryEnqueue(next); !errors.Is(err, ErrFull) {
			t.Fatalf("enqueue at capacity = %v, want ErrFull", err)
		}
		if v, ok := h.Dequeue(); !ok || v != model[0] {
			t.Fatalf("dequeue = (%d,%v), want (%d,true)", v, ok, model[0])
		}
		model = model[1:]
		if err := h.TryEnqueue(next); err != nil {
			t.Fatalf("enqueue after freeing a slot = %v", err)
		}
		model = append(model, next)
		// …and drain in FIFO order.
		for _, want := range model {
			v, ok := h.Dequeue()
			if !ok || v != want {
				t.Fatalf("drain = (%d,%v), want (%d,true)", v, ok, want)
			}
		}
		if v, ok := h.Dequeue(); ok {
			t.Fatalf("extra value %d after drain", v)
		}
	})
}

// FuzzTypedModel drives the typed facade with string payloads against a
// model, exercising the slot arena, the handles' slot stashes and the free
// list. Each op byte picks one of two handles (bit 7) and an operation (low
// three bits): single or batch enqueue, single or batch dequeue, or a
// Release and fresh NewHandle. At the end both handles are released and
// every arena slot must be back on the free list exactly once.
func FuzzTypedModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1}, "seed", false)
	f.Add([]byte{0, 1, 0, 1, 0, 1}, "", false)
	f.Add([]byte{6, 0x86, 0xfe, 0x81, 7, 0x8f, 0, 0x87, 0x7f, 1, 3}, "batch", false)
	f.Add([]byte{0x76, 0x6e, 0x76, 0xf7, 0xf7, 0x76, 0xef, 0xf7, 0x7f}, "long", true)
	f.Fuzz(func(t *testing.T, ops []byte, payload string, bigRing bool) {
		// A batch dequeue stops at a ring's end, so only a big ring lets
		// the long dequeue batches actually come back long.
		ring := 4
		if bigRing {
			ring = 256
		}
		q := NewTyped[string](WithRingSize(ring))
		hs := [2]*TypedHandle[string]{q.NewHandle(), q.NewHandle()}
		var model []string
		n := 0
		next := func() string {
			s := payload + string(rune('a'+n%26))
			n++
			return s
		}
		check := func(v string, ok bool) {
			t.Helper()
			switch {
			case len(model) == 0 && ok:
				t.Fatalf("dequeue from empty returned %q", v)
			case len(model) > 0 && (!ok || v != model[0]):
				t.Fatalf("dequeue = (%q,%v), want %q", v, ok, model[0])
			case len(model) > 0:
				model = model[1:]
			}
		}
		for _, op := range ops {
			h := hs[op>>7]
			sel := int(op>>3)&15 + 1
			// Batch lengths 1..76: short ones go through the stash slot by
			// slot, long ones take and return the overflow in one batch.
			k := sel*sel/3 + 1
			switch op & 7 {
			case 0, 2, 4:
				s := next()
				h.Enqueue(s)
				model = append(model, s)
			case 1, 3, 5:
				check(h.Dequeue())
			case 6:
				vs := make([]string, k)
				for i := range vs {
					vs[i] = next()
				}
				if m, err := h.EnqueueBatch(vs); m != k || err != nil {
					t.Fatalf("EnqueueBatch = (%d,%v), want (%d,nil)", m, err, k)
				}
				model = append(model, vs...)
			case 7:
				if sel == 16 {
					h.Release()
					hs[op>>7] = q.NewHandle()
					continue
				}
				out := make([]string, k)
				m := h.DequeueBatch(out)
				if m == 0 {
					check("", false)
				}
				for _, v := range out[:m] {
					check(v, true)
				}
			}
		}
		for len(model) > 0 {
			check(hs[0].Dequeue())
		}
		check(hs[1].Dequeue())
		hs[0].Release()
		hs[1].Release()
		checkArenaConserved(t, q)
	})
}

// FuzzPacked32Model drives the portable packed queue against a model.
func FuzzPacked32Model(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1}, uint8(2))
	f.Add([]byte{1, 0, 1, 0}, uint8(5))
	f.Fuzz(func(t *testing.T, ops []byte, order uint8) {
		q := NewPacked32(int(order%8) + 1)
		h := q.NewHandle()
		defer h.Release()
		var model []uint32
		next := uint32(1)
		for _, op := range ops {
			if op%2 == 0 {
				h.Enqueue(next)
				model = append(model, next)
				next++
			} else {
				v, ok := h.Dequeue()
				switch {
				case len(model) == 0 && ok:
					t.Fatalf("dequeue from empty returned %d", v)
				case len(model) > 0 && (!ok || v != model[0]):
					t.Fatalf("dequeue = (%d,%v), want %d", v, ok, model[0])
				case len(model) > 0:
					model = model[1:]
				}
			}
		}
	})
}
