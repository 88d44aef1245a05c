package lcrq

import (
	"math/bits"
	"time"

	"lcrq/internal/core"
)

// Option configures a Queue at construction time.
type Option func(*core.Config)

// WithRingSize sets the capacity R of each ring segment, rounded up to a
// power of two and clamped to [2, 2^26]. The paper's evaluation uses 2^17;
// its sensitivity study shows anything holding all running threads performs
// well. The default is 2^12.
func WithRingSize(r int) Option {
	return func(c *core.Config) {
		if r < 2 {
			r = 2
		}
		order := bits.Len(uint(r - 1)) // ceil(log2 r)
		c.RingOrder = order
	}
}

// WithPortableRing selects the SCQ ring engine (Nikolaev's scalable
// circular queue): cycle-tagged 64-bit entries driven by single-word
// CAS/AND, so rings are lock-free on any GOARCH — no CMPXCHG16B, no
// 128-bit emulation. This is already the default everywhere except native
// amd64 builds; use it there to measure the portable engine on CAS2-capable
// hardware. See DESIGN.md §16.
func WithPortableRing() Option {
	return func(c *core.Config) { c.Ring = core.RingSCQ }
}

// WithHierarchical enables the LCRQ+H cluster-batching optimization: an
// operation arriving from a cluster other than the ring's current owner
// waits up to timeout (0 means the paper's 100 µs) before proceeding,
// causing operations to complete in same-cluster batches on NUMA systems.
// Pair with Handle.SetCluster.
func WithHierarchical(timeout time.Duration) Option {
	return func(c *core.Config) {
		c.Hierarchical = true
		c.ClusterTimeout = timeout
	}
}

// WithStarvationLimit sets how many failed attempts an enqueuer tolerates
// before closing the ring segment and appending a fresh one.
func WithStarvationLimit(attempts int) Option {
	return func(c *core.Config) { c.StarvationLimit = attempts }
}

// WithTelemetry enables the live telemetry layer: Queue.Metrics aggregates
// per-handle operation counters while the queue serves traffic, per-op
// latency is sampled 1-in-1024 (see WithLatencySampling to tune), live
// gauges track queue depth and ring lifecycle, and Queue.MetricsHandler /
// Queue.PublishExpvar export everything with zero dependencies.
//
// Telemetry is off by default. When off, the only residue on the operation
// fast path is a nil-pointer check; when on, the per-op cost is one
// counter decrement plus an amortized counter publication every 256 ops —
// the queue's own atomics remain untouched either way.
func WithTelemetry() Option {
	return func(c *core.Config) { c.Telemetry = true }
}

// WithLatencySampling enables telemetry (as WithTelemetry) and sets its
// latency sampling stride: every n-th operation per handle is timed into
// the log-bucketed Enqueue/Dequeue/DequeueWait histograms. n ≤ 0 disables
// latency sampling while keeping counters, gauges, and the event trace.
func WithLatencySampling(n int) Option {
	return func(c *core.Config) {
		c.Telemetry = true
		if n <= 0 {
			n = -1 // normalized to "sampling disabled"
		}
		c.LatencySampleN = n
	}
}

// WithTracing enables sampled item-level tracing (and telemetry, which
// carries its aggregates): every n-th value a handle enqueues is stamped
// with a trace ID and timestamp, and the dequeue that claims it measures the
// value's ring sojourn — how long the item sat in the queue, as opposed to
// how long the operations took. Sojourn quantiles appear in
// Metrics.Sojourn, the Prometheus export (lcrq_sojourn_seconds), and the
// Queue.TraceHandler JSON endpoint; individual traces are readable via
// Queue.RecentTraces and per-operation via Handle.LastDequeueTraces.
//
// n ≤ 0 selects the default stride (1024). Callers can additionally force a
// trace with a chosen identity onto the next enqueue (Handle.ForceTrace) —
// that is how the qserve wire path threads a client's trace ID through the
// queue. Tracing adds two predictable branches to the traced queue's
// operation paths and touches the clock only for the 1-in-n stamped items
// (TestTracingOffOverhead and TestTracingSampledOverhead pin both costs).
func WithTracing(n int) Option {
	return func(c *core.Config) {
		c.Telemetry = true
		if n <= 0 {
			n = core.DefaultTraceSampleN
		}
		c.TraceSampleN = n
	}
}

// WithForcedTracingOnly enables the item-trace machinery (stamp arrays, the
// sojourn histogram, trace endpoints) without any sampling: only traces
// explicitly forced with Handle.ForceTrace are stamped. Useful when an
// upstream layer (e.g. a server honoring client trace IDs) decides what to
// trace.
func WithForcedTracingOnly() Option {
	return func(c *core.Config) {
		c.Telemetry = true
		c.TraceSampleN = -1
	}
}

// WithCapacity bounds the number of items in flight: an enqueue that would
// push the item account past n items is rejected instead of growing
// the queue — Enqueue reports false, TryEnqueue returns ErrFull, and
// EnqueueWait blocks until a dequeue frees budget. A ring budget is derived
// automatically (⌈n/R⌉+1 segments, one extra for the drained-but-unretired
// head ring), so a bounded queue's memory stays bounded even when consumers
// stall. n ≤ 0 leaves the queue unbounded.
//
// The bound is enforced with one atomic add per operation on the shared
// item account; unbounded queues skip it entirely, so the default
// configuration is unaffected.
func WithCapacity(n int64) Option {
	return func(c *core.Config) { c.Capacity = n }
}

// WithWatchdog starts a background health checker that inspects the
// queue's telemetry every interval (0 selects 100 ms) and maintains a
// verdict readable via Queue.Health and Metrics.Health: tantrum storms
// (rings closing faster than items flow), append livelocks (rings appended
// with no consumer progress), and capacity stalls (a bounded queue full
// with no consumer progress). Each ok→problem transition is reported as a
// watchdog-alert event. Implies WithTelemetry (the checks read the
// telemetry aggregates). The watchdog goroutine stops at Close.
func WithWatchdog(interval time.Duration) Option {
	return func(c *core.Config) {
		if interval <= 0 {
			interval = core.DefaultWatchdogInterval
		}
		c.Watchdog = interval
		c.Telemetry = true
	}
}

// WithWaitBackoff bounds the exponential backoff DequeueWait uses while the
// queue is empty: after a brief spin the waiter sleeps min, doubling up to
// max. Zero values select the defaults (4 µs and 1 ms); max is raised to
// min if it is smaller. Lower bounds poll more aggressively (lower latency,
// more CPU while idle); higher bounds do the opposite. EnqueueWait shares
// the bounds for its full-queue backoff. Each sleep of nominal length d is
// jittered uniformly over [d/2, 3d/2], so waiters parked by the same
// episode do not wake in lockstep.
func WithWaitBackoff(min, max time.Duration) Option {
	return func(c *core.Config) {
		c.WaitBackoffMin = min
		c.WaitBackoffMax = max
	}
}

// withUnbounded strips the resource-governance and observability options
// from a derived internal queue. The typed facade applies it to its
// free-list queue: the free list is seeded with exactly the arena's slot
// indices, so a capacity bound there would reject recycled indices and
// silently shrink the arena, and a watchdog there would double-report the
// user's queue. Nothing reads the free list's telemetry (Typed.Metrics
// reports the main queue), so it gets no sink, and no tracing either.
func withUnbounded() Option {
	return func(c *core.Config) {
		c.Capacity = 0
		c.MaxRings = 0
		c.Watchdog = 0
		c.Telemetry = false
		c.TraceSampleN = 0
	}
}
