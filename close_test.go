package lcrq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lcrq/internal/core"
)

// TestQueueCloseDrain covers the advertised drain semantics on the raw
// queue: enqueues after Close fail, queued items drain in FIFO order, and
// the drained queue stays empty.
func TestQueueCloseDrain(t *testing.T) {
	q := New(WithRingSize(4)) // several segments for 32 items
	for i := uint64(1); i <= 32; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("enqueue %d rejected before close", i)
		}
	}
	if q.Closed() {
		t.Fatal("Closed() true before Close")
	}
	q.Close()
	q.Close() // idempotent
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if q.Enqueue(99) {
		t.Fatal("enqueue accepted after close")
	}
	want := uint64(1)
	n := q.Drain(func(v uint64) {
		if v != want {
			t.Fatalf("drain got %d, want %d", v, want)
		}
		want++
	})
	if n != 32 {
		t.Fatalf("drained %d items, want 32", n)
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("drained closed queue returned a value")
	}
}

// TestDequeueWaitDelivers checks that a blocked waiter receives a value
// enqueued later, without cancellation getting involved.
func TestDequeueWaitDelivers(t *testing.T) {
	q := New()
	h := q.NewHandle()
	defer h.Release()
	go func() {
		time.Sleep(5 * time.Millisecond)
		q.Enqueue(42)
	}()
	v, err := h.DequeueWait(context.Background())
	if err != nil || v != 42 {
		t.Fatalf("DequeueWait = (%d, %v), want (42, nil)", v, err)
	}
}

// TestDequeueWaitNilContext checks the documented nil-ctx form.
func TestDequeueWaitNilContext(t *testing.T) {
	q := New()
	q.Enqueue(7)
	h := q.NewHandle()
	defer h.Release()
	v, err := h.DequeueWait(nil)
	if err != nil || v != 7 {
		t.Fatalf("DequeueWait(nil) = (%d, %v), want (7, nil)", v, err)
	}
}

// TestDequeueWaitCancellation checks both cancellation shapes: an already
// cancelled context and a deadline that expires mid-wait.
func TestDequeueWaitCancellation(t *testing.T) {
	q := New()
	h := q.NewHandle()
	defer h.Release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.DequeueWait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want Canceled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := h.DequeueWait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline ctx: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DequeueWait took %v to honour a 10ms deadline", elapsed)
	}
}

// TestDequeueWaitDrainsThenErrClosed checks the shutdown contract: waiters
// receive every queued item, then ErrClosed, never an indefinite block.
func TestDequeueWaitDrainsThenErrClosed(t *testing.T) {
	q := New(WithRingSize(2))
	for i := uint64(1); i <= 8; i++ {
		q.Enqueue(i)
	}
	q.Close()
	h := q.NewHandle()
	defer h.Release()
	for i := uint64(1); i <= 8; i++ {
		v, err := h.DequeueWait(context.Background())
		if err != nil || v != i {
			t.Fatalf("drain via DequeueWait = (%d, %v), want (%d, nil)", v, err, i)
		}
	}
	if _, err := h.DequeueWait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained closed queue: err = %v, want ErrClosed", err)
	}
}

// TestDequeueWaitUnblocksOnClose parks waiters on an empty queue and then
// closes it: every waiter must return ErrClosed promptly.
func TestDequeueWaitUnblocksOnClose(t *testing.T) {
	q := New()
	const waiters = 4
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.NewHandle()
			defer h.Release()
			_, err := h.DequeueWait(context.Background())
			errs <- err
		}()
	}
	time.Sleep(2 * time.Millisecond) // let the waiters park
	q.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter returned %v, want ErrClosed", err)
		}
	}
}

// TestTypedCloseAndDequeueWait exercises the same lifecycle through the
// typed facade, including slot recycling of a rejected enqueue.
func TestTypedCloseAndDequeueWait(t *testing.T) {
	q := NewTyped[string](WithRingSize(4))
	h := q.NewHandle()
	defer h.Release()
	if !h.Enqueue("a") || !h.Enqueue("b") {
		t.Fatal("enqueue rejected before close")
	}
	q.Close()
	if q.Enqueue("c") {
		t.Fatal("typed enqueue accepted after close")
	}
	for _, want := range []string{"a", "b"} {
		v, err := h.DequeueWait(context.Background())
		if err != nil || v != want {
			t.Fatalf("typed DequeueWait = (%q, %v), want (%q, nil)", v, err, want)
		}
	}
	if _, err := h.DequeueWait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("typed drained: err = %v, want ErrClosed", err)
	}
	if !q.Closed() {
		t.Fatal("typed Closed() false after Close")
	}
}

// TestWithWaitBackoff verifies the option plumbs through to the normalized
// configuration (white-box: same package).
func TestWithWaitBackoff(t *testing.T) {
	q := New(WithWaitBackoff(2*time.Microsecond, 500*time.Microsecond))
	cfg := q.q.Config()
	if cfg.WaitBackoffMin != 2*time.Microsecond || cfg.WaitBackoffMax != 500*time.Microsecond {
		t.Fatalf("backoff = (%v, %v), want (2µs, 500µs)", cfg.WaitBackoffMin, cfg.WaitBackoffMax)
	}
	// max below min is raised to min rather than inverting the range.
	q = New(WithWaitBackoff(time.Millisecond, time.Microsecond))
	cfg = q.q.Config()
	if cfg.WaitBackoffMax != cfg.WaitBackoffMin {
		t.Fatalf("inverted range not normalized: (%v, %v)", cfg.WaitBackoffMin, cfg.WaitBackoffMax)
	}
}

// TestWaitJitterDispersion is the herd-dispersion regression test: the
// jittered wait backoff must spread a nominal delay uniformly over
// [d/2, 3d/2] — mean-preserving, bounded, and actually dispersed (a
// constant or near-constant jitter would resynchronize waiter herds, which
// is the bug this guards against). It runs on a queue's handle and on a
// detached core handle (standalone CRQ use); both must be seeded.
func TestWaitJitterDispersion(t *testing.T) {
	q := New()
	defer q.Close()
	h := q.NewHandle()
	defer h.Release()

	const d = time.Millisecond
	const n = 4096
	for _, in := range []struct {
		name string
		h    *core.Handle
	}{
		{"queue-handle", h.h},
		{"detached", core.NewHandle()},
	} {
		t.Run(in.name, func(t *testing.T) {
			var sum time.Duration
			distinct := make(map[time.Duration]struct{})
			for i := 0; i < n; i++ {
				j := in.h.Jitter(d)
				if j < d/2 || j > d+d/2 {
					t.Fatalf("Jitter(%v) = %v, outside [%v, %v]", d, j, d/2, d+d/2)
				}
				sum += j
				distinct[j] = struct{}{}
			}
			mean := sum / n
			if mean < d*9/10 || mean > d*11/10 {
				t.Fatalf("jitter mean %v drifted from nominal %v", mean, d)
			}
			// A millisecond span has ~1e6 representable outcomes; thousands
			// of draws collapsing to a handful of values would mean the RNG
			// stream is broken.
			if len(distinct) < n/2 {
				t.Fatalf("only %d distinct jitter values in %d draws", len(distinct), n)
			}
		})
	}

	// Two handles must draw from uncorrelated streams — lockstep streams
	// would jitter every waiter identically and the herd would survive.
	h2 := q.NewHandle()
	defer h2.Release()
	same := 0
	const pairs = 64
	for i := 0; i < pairs; i++ {
		if h.h.Jitter(d) == h2.h.Jitter(d) {
			same++
		}
	}
	if same == pairs {
		t.Fatal("two handles produced identical jitter streams")
	}

	// Zero and negative delays pass through untouched (no spinning a timer
	// on a degenerate configuration).
	if j := h.h.Jitter(0); j != 0 {
		t.Fatalf("Jitter(0) = %v, want 0", j)
	}
}

// TestDoubleReleasePanicsPublic pins the public-facing double-release
// guard: the panic must surface through the facade with a clear message.
func TestDoubleReleasePanicsPublic(t *testing.T) {
	q := New()
	h := q.NewHandle()
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release through the public API did not panic")
		}
	}()
	h.Release()
}
