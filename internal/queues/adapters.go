package queues

import (
	"runtime"

	"lcrq/internal/ccqueue"
	"lcrq/internal/core"
	"lcrq/internal/fc"
	"lcrq/internal/instrument"
	"lcrq/internal/kpqueue"
	"lcrq/internal/msqueue"
	"lcrq/internal/simqueue"
)

// Registry names follow the paper's figures: "lcrq", "lcrq-cas", "lcrq+h",
// "cc-queue", "h-queue", "fc-queue", "ms-queue", plus "twolock" (the
// CC-Queue substrate) and "channel" (the Go-native baseline, not in the
// paper).
func init() {
	Register("lcrq", func(cfg Config) Queue {
		return newLCRQAdapter("lcrq", cfg, core.Config{RingOrder: cfg.RingOrder})
	})
	Register("scq", func(cfg Config) Queue {
		return newLCRQAdapter("scq", cfg, core.Config{RingOrder: cfg.RingOrder, Ring: core.RingSCQ})
	})
	Register("lcrq-cas", func(cfg Config) Queue {
		return newLCRQAdapter("lcrq-cas", cfg, core.Config{RingOrder: cfg.RingOrder, CASLoopFAA: true})
	})
	Register("lcrq+h", func(cfg Config) Queue {
		return newLCRQAdapter("lcrq+h", cfg, core.Config{
			RingOrder:      cfg.RingOrder,
			Hierarchical:   true,
			ClusterTimeout: cfg.ClusterTimeout,
		})
	})
	Register("ms-queue", func(cfg Config) Queue { return &msAdapter{q: msqueue.New()} })
	Register("twolock", func(cfg Config) Queue { return &twoLockAdapter{q: msqueue.NewTwoLock()} })
	Register("cc-queue", func(cfg Config) Queue {
		return &ccAdapter{q: ccqueue.New(combinerBound(cfg))}
	})
	Register("h-queue", func(cfg Config) Queue {
		return &hAdapter{q: ccqueue.NewH(cfg.Clusters, combinerBound(cfg))}
	})
	Register("fc-queue", func(cfg Config) Queue { return &fcAdapter{q: fc.New()} })
	Register("channel", func(cfg Config) Queue { return newChanAdapter(cfg) })
	// kp-queue is an extension beyond the paper's evaluated set: the
	// wait-free MS-queue variant its related-work section cites.
	Register("kp-queue", func(cfg Config) Queue {
		return &kpAdapter{q: kpqueue.New(2*cfg.Threads + 8)}
	})
	// sim-queue is the P-Sim based wait-free combining queue the paper
	// discusses in §2/§5. Limited to 64 handles per queue instance by its
	// toggle bitmask, so it cannot run the oversubscribed figures.
	Register("sim-queue", func(cfg Config) Queue {
		return &simAdapter{q: simqueue.New()}
	})
}

// combinerBound follows Fatourou and Kallimanis: a combiner applies at most
// a small multiple of the thread count before handing off.
func combinerBound(cfg Config) int {
	b := 4 * cfg.Threads
	if b < 64 {
		b = 64
	}
	return b
}

// ---- LCRQ family ----

type lcrqAdapter struct {
	name string
	q    *core.LCRQ
}

func newLCRQAdapter(name string, cfg Config, cc core.Config) Queue {
	// Governed mode (qbench -capacity / -watchdog): the bound and check
	// interval apply uniformly to every LCRQ variant; core normalization
	// derives the ring budget from the capacity.
	cc.Capacity = cfg.Capacity
	cc.Watchdog = cfg.Watchdog
	cc.AdaptiveContention = cfg.Adaptive
	return &lcrqAdapter{name: name, q: core.NewLCRQ(cc)}
}

func (a *lcrqAdapter) Name() string { return a.name }

func (a *lcrqAdapter) NewHandle(worker, cluster int) Handle {
	h := a.q.NewHandle()
	h.Cluster = int64(cluster)
	return &lcrqHandle{q: a.q, h: h}
}

type lcrqHandle struct {
	q *core.LCRQ
	h *core.Handle
}

// Governance reports the budget outcome of a bounded run (Governed).
func (a *lcrqAdapter) Governance() GovernanceStats {
	return GovernanceStats{
		Capacity:         a.q.Capacity(),
		MaxRings:         int64(a.q.MaxRings()),
		Items:            a.q.Items(),
		LiveRings:        a.q.LiveRings(),
		CapacityRejects:  a.q.CapacityRejects(),
		OrphanRecoveries: a.q.OrphanRecoveries(),
	}
}

func (h *lcrqHandle) Enqueue(v uint64) {
	if h.q.Enqueue(h.h, v) {
		return
	}
	// Bounded governed mode: apply backpressure — the benchmark measures
	// throughput under the budget, it does not drop items.
	for !h.q.Enqueue(h.h, v) {
		if h.q.Closed() {
			return
		}
		runtime.Gosched()
	}
}
func (h *lcrqHandle) Dequeue() (uint64, bool) {
	v, ok := h.q.Dequeue(h.h)
	if !ok {
		return 0, false
	}
	return v, true
}

// EnqueueBatch implements BatchHandle: like Enqueue, it applies
// backpressure instead of dropping — the loop re-offers the unaccepted
// tail until everything lands or the queue closes.
func (h *lcrqHandle) EnqueueBatch(vs []uint64) int {
	total := 0
	for len(vs) > 0 {
		n, st := h.q.EnqueueBatch(h.h, vs)
		total += n
		vs = vs[n:]
		if len(vs) == 0 || st == core.EnqClosed || h.q.Closed() {
			return total
		}
		if n == 0 {
			runtime.Gosched()
		}
	}
	return total
}

func (h *lcrqHandle) DequeueBatch(out []uint64) int {
	return h.q.DequeueBatch(h.h, out)
}

func (h *lcrqHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *lcrqHandle) Release()                       { h.h.Release() }

// ---- MS queue ----

type msAdapter struct{ q *msqueue.Queue }

func (a *msAdapter) Name() string { return "ms-queue" }
func (a *msAdapter) NewHandle(worker, cluster int) Handle {
	return &msHandle{q: a.q, h: &msqueue.Handle{}}
}

type msHandle struct {
	q *msqueue.Queue
	h *msqueue.Handle
}

func (h *msHandle) Enqueue(v uint64)               { h.q.Enqueue(h.h, v) }
func (h *msHandle) Dequeue() (uint64, bool)        { return h.q.Dequeue(h.h) }
func (h *msHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *msHandle) Release()                       {}

// ---- two-lock queue ----

type twoLockAdapter struct{ q *msqueue.TwoLock }

func (a *twoLockAdapter) Name() string { return "twolock" }
func (a *twoLockAdapter) NewHandle(worker, cluster int) Handle {
	return &twoLockHandle{q: a.q, h: &msqueue.Handle{}}
}

type twoLockHandle struct {
	q *msqueue.TwoLock
	h *msqueue.Handle
}

func (h *twoLockHandle) Enqueue(v uint64)               { h.q.Enqueue(h.h, v) }
func (h *twoLockHandle) Dequeue() (uint64, bool)        { return h.q.Dequeue(h.h) }
func (h *twoLockHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *twoLockHandle) Release()                       {}

// ---- CC-Queue ----

type ccAdapter struct{ q *ccqueue.Queue }

func (a *ccAdapter) Name() string { return "cc-queue" }
func (a *ccAdapter) NewHandle(worker, cluster int) Handle {
	return &ccHandle{q: a.q, h: a.q.NewHandle()}
}

type ccHandle struct {
	q *ccqueue.Queue
	h *ccqueue.Handle
}

func (h *ccHandle) Enqueue(v uint64)               { h.q.Enqueue(h.h, v) }
func (h *ccHandle) Dequeue() (uint64, bool)        { return h.q.Dequeue(h.h) }
func (h *ccHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *ccHandle) Release()                       {}

// ---- H-Queue ----

type hAdapter struct{ q *ccqueue.HQueue }

func (a *hAdapter) Name() string { return "h-queue" }
func (a *hAdapter) NewHandle(worker, cluster int) Handle {
	return &hHandle{q: a.q, h: a.q.NewHandle(), cluster: cluster}
}

type hHandle struct {
	q       *ccqueue.HQueue
	h       *ccqueue.Handle
	cluster int
}

func (h *hHandle) Enqueue(v uint64)               { h.q.Enqueue(h.h, h.cluster, v) }
func (h *hHandle) Dequeue() (uint64, bool)        { return h.q.Dequeue(h.h, h.cluster) }
func (h *hHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *hHandle) Release()                       {}

// ---- FC queue ----

type fcAdapter struct{ q *fc.Queue }

func (a *fcAdapter) Name() string { return "fc-queue" }
func (a *fcAdapter) NewHandle(worker, cluster int) Handle {
	return &fcHandle{h: a.q.NewHandle()}
}

type fcHandle struct{ h *fc.Handle }

func (h *fcHandle) Enqueue(v uint64)               { h.h.Enqueue(v) }
func (h *fcHandle) Dequeue() (uint64, bool)        { return h.h.Dequeue() }
func (h *fcHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *fcHandle) Release()                       { h.h.Release() }

// ---- Go channel baseline ----

type chanAdapter struct{ ch chan uint64 }

func newChanAdapter(cfg Config) Queue {
	capacity := cfg.Prefill + 1024*cfg.Threads
	if capacity < 1<<16 {
		capacity = 1 << 16
	}
	return &chanAdapter{ch: make(chan uint64, capacity)}
}

func (a *chanAdapter) Name() string { return "channel" }
func (a *chanAdapter) NewHandle(worker, cluster int) Handle {
	return &chanHandle{ch: a.ch, c: &instrument.Counters{}}
}

type chanHandle struct {
	ch chan uint64
	c  *instrument.Counters
}

func (h *chanHandle) Enqueue(v uint64) {
	h.ch <- v
	h.c.Enqueues++
}

func (h *chanHandle) Dequeue() (uint64, bool) {
	h.c.Dequeues++
	select {
	case v := <-h.ch:
		return v, true
	default:
		h.c.Empty++
		return 0, false
	}
}
func (h *chanHandle) Counters() *instrument.Counters { return h.c }
func (h *chanHandle) Release()                       {}

// ---- Kogan-Petrank wait-free queue (extension) ----

type kpAdapter struct{ q *kpqueue.Queue }

func (a *kpAdapter) Name() string { return "kp-queue" }
func (a *kpAdapter) NewHandle(worker, cluster int) Handle {
	return &kpHandle{q: a.q, h: a.q.NewHandle()}
}

type kpHandle struct {
	q *kpqueue.Queue
	h *kpqueue.Handle
}

func (h *kpHandle) Enqueue(v uint64)               { h.q.Enqueue(h.h, v) }
func (h *kpHandle) Dequeue() (uint64, bool)        { return h.q.Dequeue(h.h) }
func (h *kpHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *kpHandle) Release()                       {}

// ---- SimQueue (extension) ----

type simAdapter struct{ q *simqueue.Queue }

func (a *simAdapter) Name() string { return "sim-queue" }
func (a *simAdapter) NewHandle(worker, cluster int) Handle {
	return &simHandle{q: a.q, h: a.q.NewHandle()}
}

type simHandle struct {
	q *simqueue.Queue
	h *simqueue.Handle
}

func (h *simHandle) Enqueue(v uint64)               { h.q.Enqueue(h.h, v) }
func (h *simHandle) Dequeue() (uint64, bool)        { return h.q.Dequeue(h.h) }
func (h *simHandle) Counters() *instrument.Counters { return &h.h.C }
func (h *simHandle) Release()                       {}
