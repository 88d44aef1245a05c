package core

import (
	"sync/atomic"

	"lcrq/internal/chaos"
	"lcrq/internal/pad"
)

// SCQ — Nikolaev's Scalable Circular Queue ("A Scalable, Portable, and
// Memory-Efficient Lock-Free FIFO Queue", PAPERS.md) — as an alternative
// ring engine inside CRQ. Where the paper's CRQ keys every cell transition
// on a 128-bit CAS2 (CMPXCHG16B), SCQ packs a whole entry into one 64-bit
// word — ⟨Cycle, IsSafe, Index⟩ — so every transition is a single-word
// CAS/AND and the ring is lock-free on any GOARCH with plain 64-bit
// atomics. See DESIGN.md §16.
//
// Shape: the ring circulates *indices* into a data array, not values. Two
// index queues of 2n entries each serve n data slots: fq holds the free
// slot indices (initialized full with 0..n−1) and aq the allocated ones
// (initialized empty). Enqueue = fq.dequeue → data[idx] = v → aq.enqueue;
// Dequeue = aq.dequeue → v = data[idx] → fq.enqueue. Because at most n
// indices circulate through a 2n-entry ring, an index-queue enqueue never
// observes a full ring — only the data-level "fq came up empty" signals
// fullness, which we translate into the CRQ close-the-ring contract so the
// LCRQ list layer spills into a fresh ring exactly as it does for CAS2
// rings.
//
// Entry encoding (one atomic.Uint64, ring of 2n entries, idxBits = order+1):
//
//	bits [cycleShift..63]  cycle+1  (0 = virgin, "cycle −1", below every real cycle)
//	bit  [idxBits]         unsafe   (1 = unsafe; 0 = safe, so virgin entries are safe)
//	bits [0..idxBits)      ^index   (all-zero = ⊥, so virgin entries are empty)
//
// The three inversions relative to the paper (cycle stored +1, IsSafe
// stored inverted, index stored complemented) make the all-zero word
// exactly the paper's initial entry ⟨−1, safe, ⊥⟩: fresh and reset entry
// arrays are plain zero memory, and the consume transition (set index to ⊥)
// becomes a single atomic AND that clears the index field — the
// fetch_or(⊥) of the paper's Algorithm with the complemented index.
//
// The aq's head and tail are the owning CRQ's head and tail words, so the
// list layer's Depth accounting, closed-bit protocol (tail bit 63), and
// tantrum/close events work on an SCQ ring without modification. The
// dequeue side replaces CRQ's fixState with the paper's Catchup, and the
// livelock-free emptiness verdict comes from the threshold trick: any
// deposit resets the threshold to 3n−1, every unproductive dequeue
// iteration decrements it, and a dequeuer that sees it negative may declare
// EMPTY without scanning — the paper proves the verdict linearizable.
//
// Like the CRQ's cells, index arithmetic assumes ring indices stay below
// 2^63 (the closed bit); the cycle+1 field holds (2^63 >> (order+1)) + 1
// values, which at the minimum order of 1 is still ~2^61 laps.
//
//lcrq:padded
type scqRing struct {
	// fq head/tail/threshold own their cache lines like the CRQ's head and
	// tail; the aq's head/tail live on the owning CRQ (see above) and the
	// two thresholds are the only other contended words.
	fqHead atomic.Uint64
	_      pad.Pad
	fqTail atomic.Uint64
	_      pad.Pad
	fqThr  atomic.Int64
	_      pad.Pad
	aqThr  atomic.Int64
	_      pad.Pad

	// Entry arrays (2n each) and the value slots (n), read-only slice
	// headers after init. Entries are accessed only through sync/atomic;
	// data[idx] is plain, published by the aq entry CAS and reclaimed by
	// the fq entry CAS (each slot index is held by exactly one side at a
	// time, so the entry atomics carry the happens-before edges).
	aqEnt []atomic.Uint64
	fqEnt []atomic.Uint64
	data  []uint64

	// Geometry, read-only after init.
	ringBits   uint       // log2 of the entry count 2n (= order+1)
	remap      cacheRemap // ring index → entry slot
	idxMask    uint64     // index field mask (width order+1); field 0 = ⊥
	unsafeBit  uint64     // 1 << (order+1)
	cycleShift uint       // order + 2
	thrReset   int64      // 3n − 1 (the paper's threshold)
}

// newSCQRing returns an empty SCQ engine for 2^order data slots with the
// free-index queue filled with 0..n−1.
func newSCQRing(order int) *scqRing {
	n := uint64(1) << order
	s := &scqRing{
		ringBits:   uint(order) + 1,
		remap:      newCacheRemap(uint(order)+1, 3), // 8 entries: one cache line
		idxMask:    2*n - 1,
		unsafeBit:  2 * n,
		cycleShift: uint(order) + 2,
		thrReset:   int64(3*n - 1),
		aqEnt:      make([]atomic.Uint64, 2*n),
		fqEnt:      make([]atomic.Uint64, 2*n),
		data:       make([]uint64, n),
	}
	s.initState()
	return s
}

// initState (re)establishes the empty-queue state: aq empty (threshold −1),
// fq full with every slot index deposited at cycle 0 (threshold armed).
// Requires exclusive access, like CRQ.reset; the owning CRQ resets the aq
// head/tail words itself.
func (s *scqRing) initState() {
	for i := range s.aqEnt {
		s.aqEnt[i].Store(0)
	}
	for i := range s.fqEnt {
		s.fqEnt[i].Store(0)
	}
	n := uint64(len(s.data))
	for i := uint64(0); i < n; i++ {
		s.fqEnt[s.remap.slot(i)].Store(s.mkEntry(1, 0, i))
	}
	s.fqHead.Store(0)
	s.fqTail.Store(n)
	s.fqThr.Store(s.thrReset)
	s.aqThr.Store(-1)
}

// seedValue installs v as the ring's only element, assuming the freshly
// initialized state (NewCRQ or reset). The value sits at aq index 0 —
// matching the CAS2 ring's seed, so newRing's stampTrace(h, 0) pairs with
// the dequeue of index 0 — using slot 0, consumed from the head of the fq.
func (s *scqRing) seedValue(v uint64) {
	s.data[0] = v
	s.fqEnt[s.remap.slot(0)].Store(s.mkEntry(1, 0, s.idxMask)) // slot 0: consumed at fq cycle 0
	s.fqHead.Store(1)
	s.aqEnt[s.remap.slot(0)].Store(s.mkEntry(1, 0, 0)) // deposited at aq cycle 0
	s.aqThr.Store(s.thrReset)
}

// mkEntry builds an entry word from the cycle+1 field value, the unsafe bit
// (0 or s.unsafeBit), and the logical index (s.idxMask = ⊥).
func (s *scqRing) mkEntry(cyc1, unsafeF, idx uint64) uint64 {
	return cyc1<<s.cycleShift | unsafeF | (^idx & s.idxMask)
}

// entCycle extracts the cycle+1 field.
//
//lcrq:hotpath
func (s *scqRing) entCycle(e uint64) uint64 { return e >> s.cycleShift }

// entIdx extracts the logical index; s.idxMask means ⊥.
//
//lcrq:hotpath
func (s *scqRing) entIdx(e uint64) uint64 { return ^e & s.idxMask }

// casEntry performs a single-word entry CAS on behalf of h, counting the
// attempt and any failure, unless the chaos layer forces the attempt to
// fail at injection point p (no CAS is issued then — indistinguishable,
// to the caller, from losing the entry race).
//
//lcrq:hotpath
func casEntry(h *Handle, ent *atomic.Uint64, p chaos.Point, old, new uint64) bool {
	if chaos.Fire(p) {
		h.C.CASFail++
		return false
	}
	h.C.CAS++
	if ent.CompareAndSwap(old, new) {
		return true
	}
	h.C.CASFail++
	return false
}

// catchup drags tail up to head after a dequeuer overran it (the paper's
// Catchup), so the T ≤ H emptiness proof stays available to later
// dequeuers. The loop gives up as soon as tail ≥ head — which includes any
// aq tail with the closed bit set, so a closed ring's frozen tail is never
// rewritten (the closed-bit analogue of fixState's refusal).
func (s *scqRing) catchup(h *Handle, tailW, headW *atomic.Uint64, tail, head uint64) {
	chaos.Delay(chaos.ScqCatchup)
	for tail < head {
		h.C.CAS++
		if tailW.CompareAndSwap(tail, head) {
			return
		}
		h.C.CASFail++
		head = headW.Load()
		tail = tailW.Load()
	}
}

// iqDeq removes the oldest index from an index queue: the aq (head/tail =
// the CRQ's words, masked for the closed bit) when aq is true, the fq
// otherwise. It returns the slot index, the ring index it was consumed at
// (the stamp-trace key for the aq), and ok=false on a linearizable
// emptiness verdict — either the threshold ran dry or tail ≤ head was
// proved and repaired via catchup.
//
//lcrq:hotpath
func (q *CRQ) iqDeq(h *Handle, aq bool) (idx, at uint64, ok bool) {
	s := q.scq
	ent, headW, tailW, thr := s.fqEnt, &s.fqHead, &s.fqTail, &s.fqThr
	if aq {
		ent, headW, tailW, thr = s.aqEnt, &q.head, &q.tail, &s.aqThr
	}
	// The threshold verdict is linearizable for the ring in isolation, but
	// unlike the tail ≤ head proof it does not doom pending deposits: an
	// enqueuer that took its tail F&A before the verdict may still land its
	// deposit after. For an open ring that is fine — the deposit simply
	// linearizes after the EMPTY — but the list layer swings its head past
	// a closed ring on the strength of this verdict (the December-2013
	// retry), and a post-swing deposit would be stranded. So on a closed aq
	// the threshold verdicts are disabled and emptiness must come from the
	// head-climb proof below, which (exactly like CRQ's) guarantees every
	// pending deposit is either visible or doomed. Termination holds
	// without the threshold there: the tail is frozen and every iteration
	// advances head, so the proof is reached in finitely many steps.
	if thr.Load() < 0 && (!aq || q.tail.Load()&closedBit == 0) {
		return 0, 0, false
	}
	for {
		var hd uint64
		if aq {
			hd = q.faaHead(h)
			chaos.Delay(chaos.DelayDeq)
		} else {
			h.C.FAA++
			hd = headW.Add(1) - 1
		}
		j := s.remap.slot(hd)
		hc := (hd >> s.ringBits) + 1
		for {
			e := ent[j].Load()
			ec := s.entCycle(e)
			if ec == hc {
				// Consume: one atomic AND clears the (complemented) index
				// field to ⊥; the returned old word carries the index.
				h.C.TAS++
				old := ent[j].And(^s.idxMask)
				if i := s.entIdx(old); i != s.idxMask {
					return i, hd, true
				}
				// Defensively unreachable (only this hd writes cycle hc
				// here); treat like a skipped entry.
			} else if ec < hc {
				var ne uint64
				if s.entIdx(e) == s.idxMask {
					// Empty-advance ⟨c, s, ⊥⟩ → ⟨Cycle(H), s, ⊥⟩: stop the
					// matching enqueuer of cycle hc from depositing behind us.
					ne = s.mkEntry(hc, e&s.unsafeBit, s.idxMask)
				} else {
					// Mark unsafe ⟨c, 1, i⟩ → ⟨c, 0, i⟩ (paper encoding): the
					// lagging deposit stays readable but unsafe.
					ne = e | s.unsafeBit
				}
				if ne != e {
					if !casEntry(h, &ent[j], chaos.ScqDeqCAS, e, ne) {
						continue // entry changed under us: re-evaluate it
					}
					if s.entIdx(e) == s.idxMask {
						h.C.EmptyTrans++
					} else {
						h.C.UnsafeTrans++
					}
				}
			}
			// ec > hc (we are a lap behind) or the entry was skipped:
			// emptiness check before taking a fresh head.
			t := tailW.Load()
			if t&^closedBit <= hd+1 {
				s.catchup(h, tailW, headW, t, hd+1)
				thr.Add(-1)
				return 0, 0, false
			}
			if thr.Add(-1) <= -1 && (!aq || t&closedBit == 0) {
				h.C.ThresholdEmpty++
				return 0, 0, false
			}
			break
		}
		h.C.CellRetries++
	}
}

// fqEnqueue returns slot index idx to the free queue. It cannot fail: at
// most n indices circulate through the 2n-entry ring, so a usable entry is
// always reachable (the paper's "index queue never fills").
//
//lcrq:hotpath
func (s *scqRing) fqEnqueue(h *Handle, idx uint64) {
	for {
		h.C.FAA++
		t := s.fqTail.Add(1) - 1
		j := s.remap.slot(t)
		tc := (t >> s.ringBits) + 1
		for {
			e := s.fqEnt[j].Load()
			if s.entCycle(e) < tc && s.entIdx(e) == s.idxMask &&
				(e&s.unsafeBit == 0 || s.fqHead.Load() <= t) {
				if casEntry(h, &s.fqEnt[j], chaos.ScqEnqCAS, e, s.mkEntry(tc, 0, idx)) {
					chaos.Delay(chaos.ScqThreshold)
					if s.fqThr.Load() != s.thrReset {
						s.fqThr.Store(s.thrReset)
					}
					return
				}
				continue // CAS lost: re-read this entry, same t
			}
			break // entry unusable at this cycle: take a fresh tail
		}
		h.C.CellRetries++
	}
}

// aqEnqueue deposits slot index idx into the allocated queue at a fresh
// tail index, honoring the CRQ contract: false means the ring is (or was
// just) closed — by a concurrent closer, by chaos, or by this thread's own
// starvation tantrum — and the caller must refund idx to the fq.
//
//lcrq:hotpath
func (q *CRQ) aqEnqueue(h *Handle, idx uint64) bool {
	s := q.scq
	tries := 0
	for {
		// Forced starvation: unlike the CAS2 ring, whose full-ring check
		// funnels every contended attempt through the tantrum block, SCQ
		// detects fullness before reaching this loop — so the chaos tantrum
		// is evaluated per deposit attempt to keep the fault reachable.
		if chaos.Fire(chaos.Tantrum) {
			q.closeRing(h, EvRingTantrum)
			return false
		}
		t := q.faaTail(h)
		if t&closedBit != 0 {
			return false
		}
		j := s.remap.slot(t)
		tc := (t >> s.ringBits) + 1
		for {
			e := s.aqEnt[j].Load()
			if s.entCycle(e) < tc && s.entIdx(e) == s.idxMask &&
				(e&s.unsafeBit == 0 || q.head.Load() <= t) {
				chaos.Delay(chaos.DelayEnq)
				// Publish the armed trace stamp before the deposit CAS,
				// keyed by the aq index t (see CRQ.Enqueue for ordering).
				if h.traceArmed && q.stamps != nil {
					q.stampTrace(h, t)
				}
				if casEntry(h, &s.aqEnt[j], chaos.ScqEnqCAS, e, s.mkEntry(tc, 0, idx)) {
					if h.traceArmed {
						h.completeEnqTrace()
					}
					// Re-arm the threshold: the deposit is visible, so
					// dequeuers get their full 3n−1 iteration budget back.
					chaos.Delay(chaos.ScqThreshold)
					if s.aqThr.Load() != s.thrReset {
						s.aqThr.Store(s.thrReset)
					}
					return true
				}
				continue
			}
			break
		}
		tries++
		if tries >= q.cfg.StarvationLimit {
			q.closeRing(h, EvRingTantrum)
			return false
		}
		h.C.CellRetries++
	}
}

// scqEnqueue is CRQ.Enqueue for the SCQ engine: false means the ring is
// closed (full, tantrum, or concurrently), and v was not enqueued.
//
//lcrq:hotpath
func (q *CRQ) scqEnqueue(h *Handle, v uint64) bool {
	s := q.scq
	// Forced close: behave as if this attempt had observed a full ring.
	if chaos.Fire(chaos.RingClose) {
		q.closeRing(h, EvRingClose)
		return false
	}
	if q.tail.Load()&closedBit != 0 {
		return false // already closed: don't burn a free slot
	}
	idx, _, ok := q.iqDeq(h, false)
	if !ok {
		// Free queue empty: every data slot is in use (or its threshold ran
		// dry under contention) — the ring is full by the only test SCQ
		// has, so close it exactly as the CRQ does on t − head ≥ R.
		h.C.FreeEmpty++
		q.closeRing(h, EvRingClose)
		return false
	}
	s.data[idx] = v
	if !q.aqEnqueue(h, idx) {
		// Lost to a close between the slot grab and the deposit: refund
		// the slot so no index leaks, then report closed.
		s.fqEnqueue(h, idx)
		return false
	}
	return true
}

// scqDequeue is CRQ.Dequeue for the SCQ engine.
//
//lcrq:hotpath
func (q *CRQ) scqDequeue(h *Handle) (uint64, bool) {
	s := q.scq
	idx, at, ok := q.iqDeq(h, true)
	if !ok {
		return Bottom, false
	}
	v := s.data[idx]
	if q.stamps != nil {
		q.checkStamp(h, at, 0)
	}
	s.fqEnqueue(h, idx)
	return v, true
}

// scqEnqueueBatch accepts a prefix of vs one deposit at a time: SCQ's
// indices circulate through the fq, so there is no block tail reservation
// to amortize (the batch F&A win is CAS2-ring-specific). The contract
// matches EnqueueBatch: on return either every value landed or the ring is
// closed.
func (q *CRQ) scqEnqueueBatch(h *Handle, vs []uint64) (n int, closed bool) {
	chaos.Delay(chaos.BatchEnqReserve)
	for _, v := range vs {
		if !q.scqEnqueue(h, v) {
			return n, true
		}
		n++
	}
	return n, false
}

// scqDequeueBatch fills a prefix of out. A 0 return comes only from the
// first iqDeq's emptiness verdict, which is linearizable (threshold or
// tail ≤ head proof), preserving the DequeueBatch contract.
func (q *CRQ) scqDequeueBatch(h *Handle, out []uint64) int {
	chaos.Delay(chaos.BatchDeqReserve)
	s := q.scq
	n := 0
	for n < len(out) {
		idx, at, ok := q.iqDeq(h, true)
		if !ok {
			break
		}
		out[n] = s.data[idx]
		if q.stamps != nil {
			q.checkStamp(h, at, n)
		}
		s.fqEnqueue(h, idx)
		n++
	}
	return n
}

// Portable reports whether this ring runs the SCQ engine (single-word
// atomics) rather than the CAS2 cells.
func (q *CRQ) Portable() bool { return q.scq != nil }
