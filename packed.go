package lcrq

import "lcrq/internal/packedq"

// Packed32 is the portable variant of the queue: ring cells are a single
// 64-bit word, so the algorithm stays lock-free on architectures without a
// double-width CAS (the main Queue falls back to a striped-lock CAS2
// emulation there). The trade-offs relative to Queue:
//
//   - values are uint32, with Reserved32 (0xFFFFFFFF) reserved;
//   - cell indices are tracked modulo 2^31: correctness requires that no
//     thread stalls mid-operation for more than ~2^30 queue operations
//     (the same flavor of bounded-counter assumption the paper makes for
//     its 63-bit indices);
//   - retired ring segments are garbage-collected rather than recycled.
//
// On amd64 prefer Queue; Packed32 exists for the portability study and for
// 32-bit payloads on weaker ISAs.
type Packed32 struct {
	q *packedq.Queue
}

// Reserved32 is the uint32 value that cannot be stored in a Packed32.
const Reserved32 = packedq.Bottom32

// NewPacked32 returns an empty portable queue with 2^order cells per ring
// segment (order 0 selects 2^12, matching New's default geometry).
func NewPacked32(order int) *Packed32 {
	if order == 0 {
		order = 12
	}
	return &Packed32{q: packedq.New(order)}
}

// Packed32Handle is the per-goroutine context for a Packed32 queue.
type Packed32Handle struct {
	q *packedq.Queue
	h *packedq.Handle
}

// NewHandle returns a handle bound to q.
func (q *Packed32) NewHandle() *Packed32Handle {
	return &Packed32Handle{q: q.q, h: q.q.NewHandle()}
}

// Enqueue appends v; v must not equal Reserved32.
func (h *Packed32Handle) Enqueue(v uint32) { h.q.Enqueue(h.h, v) }

// Dequeue removes and returns the oldest value; ok is false if the queue
// was observed empty.
func (h *Packed32Handle) Dequeue() (v uint32, ok bool) { return h.q.Dequeue(h.h) }

// Stats returns a snapshot of this handle's operation statistics.
func (h *Packed32Handle) Stats() Stats { return h.h.C }

// Release is a no-op today (the portable queue holds no per-thread
// resources beyond counters) but is part of the handle contract so callers
// are future-proof.
func (h *Packed32Handle) Release() {}
