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
// The domain is generic over the protected node type. Each participating
// thread owns a Record with a fixed number of hazard slots; records are
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
	// scanThreshold is how many retirements a record batches before
	// scanning. Larger values amortize scan cost; smaller bound memory.
	scanThreshold int
	nrecords      atomic.Int64
}

// DefaultScanThreshold is the per-record retirement batch used when no
// explicit threshold is configured.
const DefaultScanThreshold = 8

// maxSlots bounds the hazard slots of a record. The slots live in a fixed
// array so that the record can give them a cache line of their own.
const maxSlots = 4

// New creates a Domain whose callers use slots hazard pointers per record,
// at most maxSlots. Scans and Release walk all maxSlots of every record, so
// a node published in any slot is protected; an unused slot costs one load.
func New[T any](slots int) *Domain[T] {
	if slots <= 0 || slots > maxSlots {
		panic("hazard: slots must be in [1, 4]")
	}
	return &Domain[T]{scanThreshold: DefaultScanThreshold}
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
	hps     [maxSlots]atomic.Pointer[T] // slots past the domain's count stay nil
	_       pad.Line
	active  atomic.Bool
	next    *Record[T] // immutable after insertion
	domain  *Domain[T]
	retired []retiredNode[T]
}

type retiredNode[T any] struct {
	p       *T
	reclaim func(*T)
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
// handed to the reclaimers immediately if unprotected, or kept for a later
// scan by whoever reuses the record. All hazard slots are cleared.
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
// reclaim is invoked at most once, from whichever thread's scan observes the
// node unprotected.
func (r *Record[T]) Retire(p *T, reclaim func(*T)) {
	if p == nil {
		return
	}
	r.retired = append(r.retired, retiredNode[T]{p: p, reclaim: reclaim})
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
	protected := make(map[*T]struct{}, 16)
	for rec := r.domain.records.Load(); rec != nil; rec = rec.next {
		for i := range rec.hps {
			if p := rec.hps[i].Load(); p != nil {
				protected[p] = struct{}{}
			}
		}
	}
	kept := r.retired[:0]
	for _, rn := range r.retired {
		if _, ok := protected[rn.p]; ok {
			kept = append(kept, rn)
			continue
		}
		if rn.reclaim != nil {
			rn.reclaim(rn.p)
		}
	}
	// Drop reclaimed entries; zero the tail so reclaimed nodes are not
	// retained by the backing array.
	for i := len(kept); i < len(r.retired); i++ {
		r.retired[i] = retiredNode[T]{}
	}
	r.retired = kept
}

// Stats reports the domain's record count, for tests and debugging.
func (d *Domain[T]) Stats() (records int64) { return d.nrecords.Load() }
