package core

import (
	"runtime"
	"time"
)

// Bottom is the reserved value that cannot be enqueued: it encodes the empty
// cell (⊥) in the ring. The public API's typed facade removes the
// restriction for end users.
const Bottom = ^uint64(0)

// Default tuning values. See Config.
const (
	DefaultRingOrder       = 12 // R = 4096 cells
	DefaultStarvationLimit = 64
	DefaultSpinWait        = 64
	DefaultClusterTimeout  = 100 * time.Microsecond
	// DequeueWait backoff bounds: the first sleep after the spin phase and
	// the cap the exponential doubling saturates at.
	DefaultWaitBackoffMin = 4 * time.Microsecond
	DefaultWaitBackoffMax = time.Millisecond
	// MaxRingOrder keeps index arithmetic (idx+R) comfortably inside the
	// 63-bit index field. The paper's largest evaluated ring is 2^17.
	MaxRingOrder = 26
	// DefaultLatencySampleN is the default 1-in-N latency sampling stride
	// when telemetry is enabled without an explicit rate.
	DefaultLatencySampleN = 1024
	// DefaultTraceSampleN is the default 1-in-N item-trace sampling stride
	// when tracing is enabled without an explicit rate.
	DefaultTraceSampleN = 1024
	// DefaultWatchdogInterval is the watchdog check period when enabled
	// without an explicit interval.
	DefaultWatchdogInterval = 100 * time.Millisecond
	// MinMaxRings is the smallest enforceable ring budget. The terminal
	// ring of the chain is never retired in place (a drained closed ring is
	// only unlinked once a successor exists), so a budget of 1 would wedge
	// permanently after the first ring close; 2 always leaves room for the
	// successor that lets the head ring retire.
	MinMaxRings = 2
	// Adaptive contention controller defaults (AdaptiveContention): the
	// MIAD backoff bounds, the additive decrease step, and the cap on the
	// watchdog remediation's starvation-limit boost shift. These mirror the
	// contention package's defaults; see that package for the rationale.
	DefaultAdaptSpinMin  = 32
	DefaultAdaptSpinMax  = 4096
	DefaultAdaptDecay    = 8
	DefaultAdaptBoostMax = 3
	// MaxAdaptBoost bounds any configured boost shift so the widened
	// starvation limit stays far from overflowing the tries counter.
	MaxAdaptBoost = 16
)

// RingKind selects the ring engine inside each CRQ segment.
type RingKind int

const (
	// RingAuto picks per GOARCH: the paper's CAS2 cells on amd64 (where
	// CMPXCHG16B exists, including the purego/race builds that emulate it,
	// for layout comparability), the portable SCQ ring everywhere else.
	RingAuto RingKind = iota
	// RingCAS2 forces the paper's 128-bit-cell layout (Figure 3). On
	// non-amd64 builds its CAS2 runs on the striped-spinlock emulation,
	// which is not lock-free.
	RingCAS2
	// RingSCQ forces the portable single-word ring (Nikolaev's SCQ; see
	// scq.go and DESIGN.md §16): lock-free on every GOARCH.
	RingSCQ
)

// String returns the ring name used in benchmarks and docs.
func (k RingKind) String() string {
	switch k {
	case RingCAS2:
		return "cas2"
	case RingSCQ:
		return "scq"
	default:
		return "auto"
	}
}

// Config tunes the CRQ and LCRQ algorithms. The zero value selects the
// defaults above. Config values are plumbed unexported through queues after
// normalization, so a Config can be reused and modified freely by callers.
type Config struct {
	// RingOrder is log2 of the ring size R. The paper's evaluation uses
	// 2^17; its sensitivity study (Figure 9) shows R ≥ 32 already wins on a
	// single processor. 0 selects DefaultRingOrder.
	RingOrder int

	// Padded pads each ring cell to 128 bytes (a false-sharing range) as in
	// Figure 3a. Unpadded cells pack eight per cache line, trading false
	// sharing for footprint; the ablation bench quantifies the difference.
	// The default (zero value) is padded; set NoPadding to disable.
	NoPadding bool

	// StarvationLimit is how many failed enqueue attempts (F&As) the
	// starving() predicate tolerates before closing the ring. 0 selects
	// DefaultStarvationLimit.
	StarvationLimit int

	// SpinWait bounds the dequeuer's wait for a matching active enqueuer
	// before it performs an empty transition (§4.1.1, "bounded waiting for
	// matching enqueues"). 0 selects DefaultSpinWait; negative disables the
	// optimization.
	SpinWait int

	// CASLoopFAA emulates every head/tail fetch-and-add with a CAS loop,
	// producing the paper's LCRQ-CAS comparison point.
	CASLoopFAA bool

	// Hierarchical enables the LCRQ+H cluster-batching optimization: an
	// operation arriving from a different cluster than the ring's current
	// one waits up to ClusterTimeout before barging in.
	Hierarchical bool

	// ClusterTimeout is the LCRQ+H wait bound. 0 selects
	// DefaultClusterTimeout (the paper evaluates 100 µs).
	ClusterTimeout time.Duration

	// NoRecycle disables hazard-pointer-based ring recycling, letting the
	// garbage collector reclaim retired CRQs instead. Recycling is on by
	// default to keep ring allocation off the enqueue path.
	NoRecycle bool

	// NoHazard selects GC-only reclamation: hazard pointers leave the
	// operation path entirely. In the paper's C setting this would be a
	// use-after-free; under Go's garbage collector it is safe, and the
	// option exists to measure what the paper-faithful hazard pointers
	// (§5 footnote 6; sticky slots, DESIGN.md §18) cost per operation.
	// NoHazard implies NoRecycle, since recycling is exactly what requires
	// reclamation safety.
	NoHazard bool

	// Telemetry enables the live telemetry layer: per-handle counters are
	// periodically published for lock-free aggregation, per-op latency is
	// sampled 1-in-LatencySampleN, and ring-lifecycle events are delivered
	// to Tap. Off by default; when off, the operation fast path is guarded
	// by a single nil-pointer check and nothing else.
	Telemetry bool

	// LatencySampleN is the telemetry latency sampling stride: every N-th
	// operation per handle is timed. 0 selects DefaultLatencySampleN;
	// negative disables latency sampling while keeping counters and gauges.
	LatencySampleN int

	// Tap receives ring-lifecycle events from the queue's slow paths (see
	// RingEvent). The public layer installs the telemetry sink here; nil
	// disables event delivery. Taps never run on the fast path.
	Tap Tap

	// TraceSampleN enables item-level tracing: every ring allocates a
	// parallel stamp array, and each handle stamps a trace ID + enqueue
	// timestamp into 1 in TraceSampleN of its enqueued items; the dequeue
	// that claims a stamped item measures its ring sojourn and reports it to
	// TraceTap. 0 disables tracing entirely (no stamp arrays, dead branches
	// only); negative allocates the stamp machinery but never self-arms, so
	// only explicitly forced traces (Handle.ForceTrace) are stamped.
	TraceSampleN int

	// TraceTap receives the sojourn observation of every stamped item a
	// dequeue claims (see TraceTap). The public layer installs the telemetry
	// sink here; nil discards the observations (per-op results remain
	// readable via Handle.DequeueTraces).
	TraceTap TraceTap

	// WaitBackoffMin and WaitBackoffMax bound the exponential backoff the
	// public DequeueWait uses between empty polls: after a brief spin the
	// waiter sleeps WaitBackoffMin, doubling up to WaitBackoffMax. Zero
	// values select the defaults above. EnqueueWait shares the bounds.
	WaitBackoffMin time.Duration
	WaitBackoffMax time.Duration

	// Capacity bounds the number of items in flight: an enqueue that would
	// push the item account past Capacity is rejected (EnqFull)
	// instead of growing the ring chain. 0 leaves the queue unbounded.
	// Bounded mode maintains the account with one atomic add per operation;
	// unbounded queues skip it entirely.
	Capacity int64

	// MaxRings bounds the number of ring segments linked in the queue's
	// list: an enqueue that would need to append past the budget is
	// rejected (EnqFull). 0 derives the budget from Capacity when that is
	// set (⌈Capacity/R⌉+1, covering one drained-but-unretired head ring)
	// and otherwise leaves the chain unbounded. Values below MinMaxRings
	// are raised to it — a budget of 1 would wedge on the first ring close.
	MaxRings int

	// Watchdog is the health-check interval of the public layer's
	// background watchdog; 0 disables it. Consumed above core (like
	// Telemetry); the core only carries the setting.
	Watchdog time.Duration

	// AdaptiveContention arms the per-handle adaptive contention
	// controller (internal/contention): failed cell attempts raise a
	// multiplicative-increase/additive-decrease backoff, the starvation
	// threshold widens with the measured contention, and the public wait
	// loops remember their backoff level across calls. Off by default —
	// the fixed constants above remain authoritative until the oversub
	// bench gate proves parity for a workload.
	AdaptiveContention bool

	// AdaptSpinMin and AdaptSpinMax bound the controller's backoff level
	// in spin iterations. 0 selects the defaults; negative values also
	// clamp to the defaults, and an inverted pair is repaired by raising
	// max to min (the same treatment WaitBackoffMin/Max receive).
	AdaptSpinMin int
	AdaptSpinMax int

	// AdaptDecay is the additive decrease applied to the backoff level per
	// completed operation. 0 or negative selects the default.
	AdaptDecay int

	// AdaptBoostMax caps the starvation-limit boost shift the watchdog
	// remediation may apply (limit << boost). 0 selects the default;
	// negative disables remediation (cap 0); values past MaxAdaptBoost are
	// clamped to it.
	AdaptBoostMax int

	// Ring selects the ring engine: the paper's CAS2 cells or the portable
	// single-word SCQ ring. The zero value (RingAuto) resolves per GOARCH —
	// CAS2 on amd64, SCQ elsewhere — so non-x86 platforms get a lock-free
	// queue by default instead of the spinlock-emulated CAS2.
	Ring RingKind
}

// normalized returns c with defaults applied and bounds enforced.
func (c Config) normalized() Config {
	if c.RingOrder == 0 {
		c.RingOrder = DefaultRingOrder
	}
	if c.RingOrder < 1 {
		c.RingOrder = 1
	}
	if c.RingOrder > MaxRingOrder {
		c.RingOrder = MaxRingOrder
	}
	if c.StarvationLimit == 0 {
		c.StarvationLimit = DefaultStarvationLimit
	}
	if c.StarvationLimit < 1 {
		c.StarvationLimit = 1
	}
	if c.SpinWait == 0 {
		c.SpinWait = DefaultSpinWait
	}
	if c.SpinWait < 0 {
		c.SpinWait = 0
	}
	if c.ClusterTimeout == 0 {
		c.ClusterTimeout = DefaultClusterTimeout
	}
	if c.WaitBackoffMin <= 0 {
		c.WaitBackoffMin = DefaultWaitBackoffMin
	}
	if c.WaitBackoffMax <= 0 {
		c.WaitBackoffMax = DefaultWaitBackoffMax
	}
	if c.WaitBackoffMax < c.WaitBackoffMin {
		c.WaitBackoffMax = c.WaitBackoffMin
	}
	if c.LatencySampleN == 0 {
		c.LatencySampleN = DefaultLatencySampleN
	}
	if c.LatencySampleN < 0 {
		c.LatencySampleN = 0 // sampling disabled
	}
	if c.NoHazard {
		c.NoRecycle = true
	}
	if c.Capacity < 0 {
		c.Capacity = 0
	}
	if c.MaxRings < 0 {
		c.MaxRings = 0
	}
	if c.Capacity > 0 && c.MaxRings == 0 {
		r := int64(1) << c.RingOrder
		c.MaxRings = int((c.Capacity+r-1)/r) + 1
	}
	if c.MaxRings > 0 && c.MaxRings < MinMaxRings {
		c.MaxRings = MinMaxRings
	}
	if c.Watchdog < 0 {
		c.Watchdog = 0
	}
	if c.AdaptSpinMin <= 0 {
		c.AdaptSpinMin = DefaultAdaptSpinMin
	}
	if c.AdaptSpinMax <= 0 {
		c.AdaptSpinMax = DefaultAdaptSpinMax
	}
	if c.AdaptSpinMax < c.AdaptSpinMin {
		c.AdaptSpinMax = c.AdaptSpinMin
	}
	if c.AdaptDecay <= 0 {
		c.AdaptDecay = DefaultAdaptDecay
	}
	if c.AdaptBoostMax == 0 {
		c.AdaptBoostMax = DefaultAdaptBoostMax
	}
	if c.AdaptBoostMax < 0 {
		c.AdaptBoostMax = -1 // remediation disabled
	}
	if c.AdaptBoostMax > MaxAdaptBoost {
		c.AdaptBoostMax = MaxAdaptBoost
	}
	if c.Ring == RingAuto {
		if runtime.GOARCH == "amd64" {
			c.Ring = RingCAS2
		} else {
			c.Ring = RingSCQ
		}
	}
	return c
}

// Bounded reports whether the configuration enforces an item or ring
// budget. It gives the same answer on a raw and a normalized Config:
// normalization only zeroes negative budgets and derives MaxRings when
// Capacity is already positive. Operation paths call it, so it must stay
// small enough to inline.
func (c Config) Bounded() bool { return c.Capacity > 0 || c.MaxRings > 0 }

// RingSize returns the number of cells R implied by the configuration.
func (c Config) RingSize() int { return 1 << c.normalized().RingOrder }
