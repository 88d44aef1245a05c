package hazard

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

type node struct {
	v    int
	next atomic.Pointer[node]
}

func TestAcquireReuse(t *testing.T) {
	d := New[node](2)
	r1 := d.Acquire()
	r2 := d.Acquire()
	if r1 == r2 {
		t.Fatal("two live acquires returned the same record")
	}
	if d.Stats() != 2 {
		t.Fatalf("records = %d, want 2", d.Stats())
	}
	r1.Release()
	r3 := d.Acquire()
	if r3 != r1 {
		t.Fatal("released record was not reused")
	}
	if d.Stats() != 2 {
		t.Fatalf("records = %d after reuse, want 2", d.Stats())
	}
}

func TestNewPanicsOnBadSlots(t *testing.T) {
	for _, slots := range []int{0, maxSlots + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d): expected panic", slots)
				}
			}()
			New[node](slots)
		}()
	}
}

// TestRecordSlotsOwnCacheLine checks the layout padcheck enforces statically
// against real allocations: records acquired back to back on one goroutine
// come from adjacent allocator slots, and neither record's hazard slots may
// share a 64-byte line with any byte of the other record.
func TestRecordSlotsOwnCacheLine(t *testing.T) {
	const line = 64
	d := New[node](2)
	recs := make([]*Record[node], 8)
	for i := range recs {
		recs[i] = d.Acquire()
	}
	slotLines := func(r *Record[node]) (first, last uintptr) {
		lo := uintptr(unsafe.Pointer(&r.hps[0]))
		return lo / line, (lo + unsafe.Sizeof(r.hps) - 1) / line
	}
	extent := func(r *Record[node]) (first, last uintptr) {
		lo := uintptr(unsafe.Pointer(r))
		return lo / line, (lo + unsafe.Sizeof(*r) - 1) / line
	}
	for i, a := range recs {
		af, al := slotLines(a)
		if l := uintptr(unsafe.Pointer(&a.active)) / line; af <= l && l <= al {
			t.Fatalf("record %d: active flag shares a cache line with the hazard slots", i)
		}
		for j, b := range recs {
			if i == j {
				continue
			}
			bf, bl := extent(b)
			if !(bl < af || al < bf) {
				t.Fatalf("record %d's hazard slots (lines %d-%d) share a cache line with record %d (lines %d-%d)",
					i, af, al, j, bf, bl)
			}
		}
	}
}

func TestRetireReclaimsUnprotected(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var reclaimed []*node
	n := &node{v: 1}
	r.Retire(n, func(p *node) { reclaimed = append(reclaimed, p) })
	r.scan()
	if len(reclaimed) != 1 || reclaimed[0] != n {
		t.Fatalf("reclaimed = %v", reclaimed)
	}
}

func TestRetireNilIsNoop(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	r.Retire(nil, func(*node) { t.Fatal("reclaimed nil") })
	r.scan()
}

func TestProtectBlocksReclamation(t *testing.T) {
	d := New[node](1)
	owner := d.Acquire()
	other := d.Acquire()

	n := &node{v: 7}
	other.Protect(0, n)

	var reclaimed int
	owner.Retire(n, func(*node) { reclaimed++ })
	owner.scan()
	if reclaimed != 0 {
		t.Fatal("protected node was reclaimed")
	}
	other.Release()
	owner.scan()
	if reclaimed != 1 {
		t.Fatalf("reclaimed = %d after Release, want 1", reclaimed)
	}
}

// TestEverySlotProtects: a node published in any of a record's slots, even
// one past the domain's declared count, survives a scan, and Release clears
// that slot too.
func TestEverySlotProtects(t *testing.T) {
	d := New[node](1)
	owner := d.Acquire()
	other := d.Acquire()
	for i := range maxSlots {
		n := &node{v: i}
		other.Protect(i, n)
		var reclaimed int
		owner.Retire(n, func(*node) { reclaimed++ })
		owner.scan()
		if reclaimed != 0 {
			t.Fatalf("node protected in slot %d was reclaimed", i)
		}
		other.Release()
		owner.scan()
		if reclaimed != 1 {
			t.Fatalf("slot %d: reclaimed = %d after Release, want 1", i, reclaimed)
		}
		other = d.Acquire()
	}
}

func TestReleaseScansOutstanding(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var reclaimed int
	r.Retire(&node{}, func(*node) { reclaimed++ })
	r.Release()
	if reclaimed != 1 {
		t.Fatal("Release did not scan retired nodes")
	}
}

func TestProtectPtrValidates(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var src atomic.Pointer[node]
	n := &node{v: 3}
	src.Store(n)
	got := r.ProtectPtr(0, &src)
	if got != n {
		t.Fatalf("ProtectPtr = %v", got)
	}
	if r.hps[0].Load() != n {
		t.Fatal("hazard slot not published")
	}
}

// TestProtectPtrFastPath: while src still points at the node the slot holds,
// ProtectPtr returns that node and leaves the slot as it is; once src moves
// on, it publishes the new node. The src comparison is load-bearing: a fast
// path that trusted a non-empty slot alone would return the stale node.
func TestProtectPtrFastPath(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var src atomic.Pointer[node]
	a, b := &node{v: 1}, &node{v: 2}
	src.Store(a)
	for i := 0; i < 3; i++ {
		if got := r.ProtectPtr(0, &src); got != a {
			t.Fatalf("call %d: ProtectPtr = node %d, want node 1", i, got.v)
		}
		if r.hps[0].Load() != a {
			t.Fatalf("call %d: slot no longer holds node 1", i)
		}
	}
	src.Store(b)
	if got := r.ProtectPtr(0, &src); got != b {
		t.Fatalf("ProtectPtr after src moved = node %d, want node 2", got.v)
	}
	if r.hps[0].Load() != b {
		t.Fatal("slot was not republished after src moved")
	}
}

// TestStickySlotSurvivesRetire: a slot stays published after ProtectPtr
// returns, with nothing clearing it, so the node survives another record's
// Retire and scan; once the owner's next ProtectPtr sees src changed, the
// next scan reclaims it.
func TestStickySlotSurvivesRetire(t *testing.T) {
	d := New[node](1)
	owner := d.Acquire()
	other := d.Acquire()
	var src atomic.Pointer[node]
	old, cur := &node{v: 1}, &node{v: 2}
	src.Store(old)
	owner.ProtectPtr(0, &src)
	src.Store(cur) // unlink old, as a head swing would

	var reclaimed int
	other.Retire(old, func(*node) { reclaimed++ })
	other.scan()
	if reclaimed != 0 {
		t.Fatal("node held in a sticky slot was reclaimed")
	}
	if got := owner.ProtectPtr(0, &src); got != cur {
		t.Fatalf("ProtectPtr = node %d, want node 2", got.v)
	}
	other.scan()
	if reclaimed != 1 {
		t.Fatalf("reclaimed = %d after the owner moved on, want 1", reclaimed)
	}
}

// TestReleaseFreesStickySlots: Release clears every slot the record left
// published, so whatever it held is reclaimed at the next scan.
func TestReleaseFreesStickySlots(t *testing.T) {
	d := New[node](2)
	owner := d.Acquire()
	other := d.Acquire()
	var head, tail atomic.Pointer[node]
	a, b := &node{v: 1}, &node{v: 2}
	head.Store(a)
	tail.Store(b)
	owner.ProtectPtr(0, &head)
	owner.ProtectPtr(1, &tail)

	var reclaimed int
	other.Retire(a, func(*node) { reclaimed++ })
	other.Retire(b, func(*node) { reclaimed++ })
	other.scan()
	if reclaimed != 0 {
		t.Fatalf("reclaimed %d nodes held in sticky slots", reclaimed)
	}
	owner.Release()
	other.scan()
	if reclaimed != 2 {
		t.Fatalf("reclaimed = %d after Release, want 2", reclaimed)
	}
}

// BenchmarkProtectPtr measures one protection of an unchanged node (the
// sticky fast path: a load-compare) against one of a node that changed
// since the last call (publish, fence, reread; the loop's own store that
// changes src is included).
func BenchmarkProtectPtr(b *testing.B) {
	d := New[node](1)
	r := d.Acquire()
	defer r.Release()
	nodes := [2]*node{{v: 1}, {v: 2}}
	var src atomic.Pointer[node]
	b.Run("unchanged", func(b *testing.B) {
		src.Store(nodes[0])
		for i := 0; i < b.N; i++ {
			r.ProtectPtr(0, &src)
		}
	})
	b.Run("changed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			src.Store(nodes[i&1])
			r.ProtectPtr(0, &src)
		}
	})
}

func TestScanThresholdScalesWithRecords(t *testing.T) {
	d := New[node](1)
	r := d.Acquire()
	var reclaimed atomic.Int64
	// Below threshold (8 × 1 record), nothing is scanned automatically.
	for i := 0; i < 7; i++ {
		r.Retire(&node{v: i}, func(*node) { reclaimed.Add(1) })
	}
	if reclaimed.Load() != 0 {
		t.Fatalf("premature reclamation of %d nodes", reclaimed.Load())
	}
	// Crossing the threshold triggers a scan of everything.
	r.Retire(&node{v: 8}, func(*node) { reclaimed.Add(1) })
	if reclaimed.Load() != 8 {
		t.Fatalf("reclaimed = %d at threshold, want 8", reclaimed.Load())
	}
}

// TestConcurrentListTraversal exercises the classic hazard-pointer usage: a
// shared stack whose nodes are popped, retired, and recycled while readers
// traverse. The assertion is that no node is ever reclaimed while a reader
// holds it (checked via a poisoned flag).
func TestConcurrentListTraversal(t *testing.T) {
	d := New[node](1)
	var head atomic.Pointer[node]
	const nodes = 200
	for i := 0; i < nodes; i++ {
		n := &node{v: i}
		n.next.Store(head.Load())
		head.Store(n)
	}
	poisoned := make(map[*node]*atomic.Bool)
	var mu sync.Mutex
	markPoisoned := func(p *node) {
		mu.Lock()
		defer mu.Unlock()
		poisoned[p].Store(true)
	}
	mu.Lock()
	for n := head.Load(); n != nil; n = n.next.Load() {
		var b atomic.Bool
		poisoned[n] = &b
	}
	mu.Unlock()

	var wg sync.WaitGroup
	// Poppers: detach head, retire it.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Acquire()
			defer r.Release()
			for {
				n := r.ProtectPtr(0, &head)
				if n == nil {
					return
				}
				next := n.next.Load()
				if head.CompareAndSwap(n, next) {
					r.Retire(n, markPoisoned)
				}
			}
		}()
	}
	// Readers: protect head and verify it is not poisoned while held.
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Acquire()
			defer r.Release()
			for i := 0; i < 5000; i++ {
				n := r.ProtectPtr(0, &head)
				if n == nil {
					return
				}
				mu.Lock()
				p := poisoned[n]
				mu.Unlock()
				if p.Load() {
					select {
					case errs <- "read a reclaimed node":
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestSetScanThresholdBoundsRetired verifies the configurable reclamation
// batch: with threshold k and n records, a record's retired list never
// holds more than k×n entries, and a sub-1 threshold falls back to the
// default.
func TestSetScanThresholdBoundsRetired(t *testing.T) {
	d := New[node](1)
	d.SetScanThreshold(2)
	if got := d.ScanThreshold(); got != 2 {
		t.Fatalf("ScanThreshold = %d, want 2", got)
	}
	r1 := d.Acquire()
	r2 := d.Acquire() // second record doubles the scaled bound
	_ = r2
	bound := 2 * int(d.Stats())
	for i := 0; i < 100; i++ {
		r1.Retire(&node{v: i}, nil)
		if got := len(r1.retired); got > bound {
			t.Fatalf("retired list grew to %d, bound %d", got, bound)
		}
	}
	d2 := New[node](1)
	d2.SetScanThreshold(0)
	if got := d2.ScanThreshold(); got != DefaultScanThreshold {
		t.Fatalf("threshold 0 selected %d, want default %d", got, DefaultScanThreshold)
	}
}
