// Package hazard implements hazard pointers (Michael, IEEE TPDS 2004), the
// safe-memory-reclamation scheme the LCRQ paper uses to protect an
// operation's reference to the CRQ it is about to access.
//
// Go's garbage collector already makes use-after-free impossible, so unlike
// in the paper's C implementation hazard pointers are not needed here for
// memory safety. They are needed for something subtler: *reuse*. A retired
// CRQ ring is megabytes of cache-hot memory; recycling it into the next
// appended CRQ instead of letting the GC reclaim it keeps allocation off the
// enqueue path (the paper achieves the same with jemalloc). A ring may only
// be recycled once no thread can still perform transitions on its cells, and
// that is exactly the guarantee hazard pointers provide.
//
// The paper's per-operation overhead is "writing the CRQ's address to a
// thread-private location, issuing a memory fence, and rereading the LCRQ's
// head/tail" (§5, footnote 6). Here slots are sticky: an operation leaves
// its slot published, so the next operation on the same ring pays one
// load-compare, and the publication (store, fence, reread) happens only
// when the ring changes. The price is memory: a record keeps the nodes it
// last protected — one per slot — from reclamation until it protects
// something else or is Released.
//
// The domain is generic over the protected node type and hands every
// reclaimable node to the one reclaim function it was built with. Each
// participating thread owns a Record with Slots hazard slots; records are
// acquired once per thread and can be returned to a free list when the
// thread leaves.
package hazard

import (
	"sync/atomic"

	"lcrq/internal/chaos"
	"lcrq/internal/pad"
)

// Domain groups the hazard-pointer records that protect one family of nodes
// of type T, together with the retired-node lists awaiting reclamation.
type Domain[T any] struct {
	// head of the global record list; records are never removed, only
	// marked inactive and reused, as in Michael's original scheme.
	records atomic.Pointer[Record[T]]
	// reclaim receives each retired node once no slot protects it.
	reclaim func(*T)
	// scanThreshold is how many retirements a record batches before
	// scanning. Larger values amortize scan cost; smaller bound memory.
	scanThreshold int
	nrecords      atomic.Int64
}

// DefaultScanThreshold is the per-record retirement batch used when no
// explicit threshold is configured.
const DefaultScanThreshold = 8

// Slots is the number of hazard slots in a record: LCRQ protects the ring a
// dequeue works in and the ring an enqueue works in. The slots live in a
// fixed array so that the record can give them a cache line of their own,
// and scans and Release walk all of them.
const Slots = 2

// New creates a Domain that passes each retired node to reclaim, from
// whichever thread's scan finds it unprotected. reclaim must not be nil.
func New[T any](reclaim func(*T)) *Domain[T] {
	return &Domain[T]{reclaim: reclaim, scanThreshold: DefaultScanThreshold}
}

// SetScanThreshold sets the retirement batch: a record scans once its
// retired list holds threshold × (number of records) entries. Smaller
// values tighten the retired-memory bound — a record's list never exceeds
// threshold × records entries, of which at most slots × records can survive
// a scan — at the cost of more frequent O(H) scans. threshold < 1 selects
// DefaultScanThreshold. Call before the domain is in use; the setting is
// not synchronized.
func (d *Domain[T]) SetScanThreshold(threshold int) {
	if threshold < 1 {
		threshold = DefaultScanThreshold
	}
	d.scanThreshold = threshold
}

// ScanThreshold returns the configured retirement batch.
func (d *Domain[T]) ScanThreshold() int { return d.scanThreshold }

// Record is one thread's set of hazard slots plus its private retired list.
// A Record must not be used concurrently.
//
// The owner reads its slots on every queue operation and stores to them
// whenever the protected node changes, and every scan reads them, so the
// slots sit between two pad.Lines: records allocated back to back (two handles made
// one after the other on one goroutine) then never put two threads' slots,
// or one thread's slots and another's active flag, on one cache line.
//
//lcrq:padded
type Record[T any] struct {
	_       pad.Line
	hps     [Slots]atomic.Pointer[T]
	_       pad.Line
	active  atomic.Bool
	next    *Record[T] // immutable after insertion
	domain  *Domain[T]
	retired []*T
	// protected is scan's snapshot of every record's slots. It is kept
	// across scans, emptied after each, so that a scan does not allocate.
	protected map[*T]struct{}
}

// Acquire returns a Record for the calling thread, reusing an inactive one
// when possible.
func (d *Domain[T]) Acquire() *Record[T] {
	for r := d.records.Load(); r != nil; r = r.next {
		if !r.active.Load() && r.active.CompareAndSwap(false, true) {
			return r
		}
	}
	r := &Record[T]{domain: d}
	r.active.Store(true)
	for {
		head := d.records.Load()
		r.next = head
		if d.records.CompareAndSwap(head, r) {
			d.nrecords.Add(1)
			return r
		}
	}
}

// Release returns the record to the domain. Outstanding retired nodes are
// handed to the reclaim function immediately if unprotected, or kept for a
// later scan by whoever reuses the record. All hazard slots are cleared.
func (r *Record[T]) Release() {
	for i := range r.hps {
		r.hps[i].Store(nil)
	}
	r.scan()
	r.active.Store(false)
}

// Protect publishes p in hazard slot i and returns p. The caller must then
// validate that p is still reachable (e.g. reread the shared pointer it was
// loaded from) before dereferencing; the usual pattern is the load-publish-
// recheck loop in ProtectPtr.
func (r *Record[T]) Protect(i int, p *T) *T {
	r.hps[i].Store(p) // atomic store doubles as the required fence
	return p
}

// ProtectPtr returns the node *src points to, protected by slot i: the
// returned node was reachable from src after the hazard pointer was visible.
//
// Slots are sticky: nothing clears them between operations, so slot i
// usually still holds the node the previous call protected, and that node is
// usually still *src. When the loaded pointer matches the slot, ProtectPtr
// returns it without a store. That load is itself the revalidation: the
// slot's value was published by this record's own earlier seq-cst store,
// which precedes the load in program order. Otherwise it publishes the
// loaded pointer and rereads *src until the two agree.
func (r *Record[T]) ProtectPtr(i int, src *atomic.Pointer[T]) *T {
	p := src.Load()
	for {
		// The load→compare/publish window is the classic hazard-pointer
		// race: a retirer that scans here does not yet see a claim on p.
		chaos.Delay(chaos.HazardWindow)
		if r.hps[i].Load() == p {
			return p
		}
		r.hps[i].Store(p)
		q := src.Load()
		if q == p {
			return p
		}
		p = q
	}
}

// Retire schedules p for reclamation once no hazard pointer protects it.
// The domain's reclaim function receives p at most once, from whichever
// thread's scan observes the node unprotected.
func (r *Record[T]) Retire(p *T) {
	if p == nil {
		return
	}
	r.retired = append(r.retired, p)
	// Scale the batch with the number of participants so scans stay O(H)
	// amortized, as in the original paper.
	threshold := r.domain.scanThreshold * int(r.domain.nrecords.Load())
	if len(r.retired) >= threshold {
		r.scan()
	}
}

// scan reclaims every retired node not currently protected by any record.
func (r *Record[T]) scan() {
	if len(r.retired) == 0 {
		return
	}
	// Delay between retirement and the protection snapshot, widening the
	// window a concurrent ProtectPtr must win to keep its node alive.
	chaos.Delay(chaos.HazardWindow)
	if r.protected == nil {
		r.protected = make(map[*T]struct{}, 2*Slots)
	}
	protected := r.protected
	for rec := r.domain.records.Load(); rec != nil; rec = rec.next {
		for i := range rec.hps {
			if p := rec.hps[i].Load(); p != nil {
				protected[p] = struct{}{}
			}
		}
	}
	kept := r.retired[:0]
	for _, p := range r.retired {
		if _, ok := protected[p]; ok {
			kept = append(kept, p)
			continue
		}
		r.domain.reclaim(p)
	}
	// Drop reclaimed entries; zero the tail and empty the snapshot so
	// neither keeps a node reachable.
	clear(r.retired[len(kept):])
	r.retired = kept
	clear(protected)
}

// Stats reports the domain's record count, for tests and debugging.
func (d *Domain[T]) Stats() (records int64) { return d.nrecords.Load() }
