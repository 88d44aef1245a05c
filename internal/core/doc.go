// Package core implements the paper's primary contribution: the CRQ
// (concurrent ring queue) and LCRQ (linked list of CRQs) algorithms of
//
//	Adam Morrison and Yehuda Afek. Fast Concurrent Queues for x86
//	Processors. PPoPP 2013.
//
// including the December 2013 author revision's corrections (the fixed
// Figure 3 pseudocode and the lost-item fix in Figure 5, lines 146-147).
//
// # Algorithm recap
//
// A CRQ is a ring of R cells indexed by ever-increasing 64-bit head and
// tail counters; index i addresses cell i mod R (stored at a cache-remapped
// position, so neighbouring indices do not share a cache line; see
// cacheRemap). Enqueuers and dequeuers
// obtain indices with fetch-and-add — which always succeeds, so contention
// on head and tail costs only cache-coherence traffic, never wasted retries
// — and then synchronize on the addressed cell with a double-width CAS
// (CAS2). A cell is a logical triple (safe bit, index, value); the protocol
// has four transitions:
//
//   - enqueue:  (s, k, ⊥) → (1, t, v)  for k ≤ t, provided s=1 or head ≤ t
//   - dequeue:  (s, h, v) → (s, h+R, ⊥) by the dequeuer whose F&A returned
//     exactly h
//   - empty:    (s, k, ⊥) → (s, h+R, ⊥) for k ≤ h — the dequeuer arrived
//     before the matching enqueuer and poisons the cell against it
//   - unsafe:   (s, k, v) → (0, k, v) for k < h — the dequeuer arrived a
//     whole lap early; the cell cannot be dequeued by it, so it is marked
//     unsafe to stop enqueuer lap k' > k from parking a value nobody will
//     collect
//
// A CRQ is a *tantrum queue*: an enqueue that cannot make progress (the
// ring is full, or the enqueuer keeps being outrun) closes the ring and
// returns CLOSED forever after. LCRQ turns tantrum queues into an unbounded
// nonblocking FIFO queue by chaining them: an enqueuer that receives CLOSED
// appends a fresh CRQ seeded with its item; dequeuers drain a CRQ and move
// to its successor.
//
// # Cell encoding
//
// CAS2 is provided by internal/atomic128 (LOCK CMPXCHG16B on amd64). The
// 128-bit cell packs the triple as:
//
//	lo word: bit 63 = "unsafe" flag (0 means safe), bits 0..62 = index
//	hi word: bitwise complement of the value; ⊥ is encoded as physical 0
//
// Two deliberate inversions — the safe bit is stored inverted and values
// are stored complemented — make the all-zero cell equal to the logical
// initial state (safe, index 0, ⊥). Fresh rings are therefore ready
// straight out of make (the Go allocator zeroes), and recycled rings are
// reinitialized with a single memclr. Starting every cell at index 0
// instead of the paper's u is sound because the index only ever acts as a
// lower bound ("has an operation with a larger index already been here?"),
// and 0 is the universal lower bound; exact-match checks (the dequeue
// transition) compare against indices that only an enqueue transition can
// have installed.
//
// The complemented-value trick reserves exactly one value, ^uint64(0), as
// ⊥; the public API enforces that restriction and offers a typed facade for
// arbitrary values.
//
// # Variants
//
// The package also implements the paper's evaluation variants: LCRQ-CAS
// (fetch-and-add emulated by a CAS loop, Config.CASLoopFAA) and LCRQ+H (the
// hierarchical cluster-batching optimization of §4.1.1, Config.Hierarchical)
// — plus the idealized infinite-array queue of Figure 2 for exposition and
// differential testing.
package core
