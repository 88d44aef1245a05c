// Package telemetry is the live observability layer for the queue: it turns
// the per-handle instrumentation that the bench harness reads post-hoc into
// metrics that can be scraped while the queue serves traffic.
//
// The design splits responsibilities so that nothing synchronizes on the
// operation fast path:
//
//   - Counters stay plain single-writer fields owned by each handle (see
//     internal/instrument). A handle's telemetry record republishes them
//     into an atomically readable mirror every publishInterval operations,
//     so a scraper sums per-handle snapshots that lag the truth by at most
//     one interval per handle — lock-free on both sides.
//   - Latency is sampled 1-in-N per handle (randomized phase, deterministic
//     stride) into shared log-bucketed histograms with one atomic counter
//     per bucket; the bucket layout is borrowed from internal/hist so
//     quantiles come from the same code the bench harness uses.
//   - Ring-lifecycle events (close, tantrum, append, recycle, retire, queue
//     close) arrive via the core.Tap interface — all slow paths — and are
//     tallied and recorded into a bounded lock-free event ring readable as
//     a debugging trace.
//
// The package has no dependencies beyond the repo; exporters (expvar,
// Prometheus text format) live in the public package on top of Snapshot.
package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcrq/internal/chaos"
	"lcrq/internal/core"
	"lcrq/internal/hist"
	"lcrq/internal/instrument"
)

// Kind identifies a latency series.
type Kind uint8

const (
	KindEnqueue Kind = iota
	KindDequeue
	KindDequeueWait
	KindEnqueueWait

	// NumKinds is the number of latency series; it is not itself a kind.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindEnqueue:     "enqueue",
	KindDequeue:     "dequeue",
	KindDequeueWait: "dequeue-wait",
	KindEnqueueWait: "enqueue-wait",
}

// String returns the series name used by the exporters.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// BatchKind identifies a batch-size distribution series.
type BatchKind uint8

const (
	BatchEnqueue BatchKind = iota
	BatchDequeue

	// NumBatchKinds is the number of batch series; it is not itself a kind.
	NumBatchKinds
)

var batchKindNames = [NumBatchKinds]string{
	BatchEnqueue: "enqueue-batch",
	BatchDequeue: "dequeue-batch",
}

// String returns the series name used by the exporters.
func (k BatchKind) String() string {
	if k < NumBatchKinds {
		return batchKindNames[k]
	}
	return "unknown"
}

// publishInterval is how many operations a handle performs between counter
// republications. It bounds both the scraper's staleness (per handle) and
// the amortized publication cost (~20 atomic stores per interval).
const publishInterval = 256

// DefaultEventBuffer is the default capacity of the ring-lifecycle event
// trace.
const DefaultEventBuffer = 256

// retireMidFold is a test hook invoked between the retired-sum publish and
// the live-list swap in Unregister — the window where the two halves of the
// aggregate disagree. Nil outside tests.
var retireMidFold func()

// Sink aggregates telemetry for one queue. It implements core.Tap. Its
// plain fields are configuration and sub-structure pointers frozen when
// New publishes the sink; all post-publication mutation goes through
// atomics or mu.
//
//lcrq:publish
type Sink struct {
	sampleN uint32 // latency sampling stride; 0 disables sampling
	epoch   int64  // UnixNano base for compact event timestamps

	mu sync.Mutex // guards registration and retired
	//lcrq:seqlock retireVer
	retired instrument.Counters // sum over released handles (under mu)
	//lcrq:seqlock retireVer
	retPub *instrument.AtomicCounters // atomically readable copy of retired
	//lcrq:seqlock retireVer
	recs atomic.Pointer[[]*Rec] // copy-on-write registry of live handles
	// retireVer is a seqlock over the (retPub, recs) pair: odd while an
	// Unregister is folding a handle into the retired sum. Without it a
	// Snapshot could read the new retired total and the stale live list,
	// count the retiring handle twice, and make monotone counters appear
	// to run backwards between scrapes.
	retireVer atomic.Uint64
	seedCtr   atomic.Uint64 // sampling phase scrambler
	hists     [NumKinds]*latHist
	batches   [NumBatchKinds]*latHist // batch-size distributions (items, not ns)
	sojourn   *latHist                // item ring-residency (sampled item traces)
	events    *eventRing
	traces    *traceRing // recent completed item traces
	evCount   [core.NumRingEvents]atomic.Uint64
}

// New returns a Sink sampling latency 1-in-sampleN (0 disables latency
// sampling) with an event trace of eventCap entries (0 selects
// DefaultEventBuffer).
func New(sampleN int, eventCap int) *Sink {
	if sampleN < 0 {
		sampleN = 0
	}
	if eventCap <= 0 {
		eventCap = DefaultEventBuffer
	}
	s := &Sink{
		sampleN: uint32(sampleN),
		epoch:   time.Now().UnixNano(),
		retPub:  new(instrument.AtomicCounters),
		events:  newEventRing(eventCap),
		traces:  newTraceRing(DefaultTraceBuffer),
		sojourn: newLatHist(),
	}
	empty := []*Rec{}
	s.recs.Store(&empty)
	for k := range s.hists {
		s.hists[k] = newLatHist()
	}
	for k := range s.batches {
		s.batches[k] = newLatHist()
	}
	return s
}

// RingEvent implements core.Tap: it tallies the event and appends it to the
// lifecycle trace. Called only from queue slow paths.
func (s *Sink) RingEvent(ev core.RingEvent) {
	if ev >= core.NumRingEvents {
		return
	}
	s.evCount[ev].Add(1)
	s.events.add(uint8(ev), time.Now().UnixNano()-s.epoch)
}

// Rec is the per-handle telemetry record. Like the handle itself it is
// single-writer: only the owning goroutine calls Arm, Lat, and Tick.
//
//lcrq:singlewriter
type Rec struct {
	sink      *Sink
	src       *instrument.Counters
	pub       *instrument.AtomicCounters
	ops       uint32
	countdown uint32
}

// Register adds a handle's counters to the aggregation set and returns its
// record. src must remain owned by the registering goroutine.
func (s *Sink) Register(src *instrument.Counters) *Rec {
	r := &Rec{sink: s, src: src, pub: new(instrument.AtomicCounters)}
	if s.sampleN > 0 {
		// Random phase per handle so samplers do not run in lockstep.
		seed := s.seedCtr.Add(1) * 0x9E3779B97F4A7C15
		r.countdown = uint32(seed%uint64(s.sampleN)) + 1
	}
	s.mu.Lock()
	// Bracket the list swap in the retireVer seqlock, like Unregister: recs
	// is one half of the (retPub, recs) pair, and a registration racing a
	// scrape mid-pass should send the scrape around again rather than let
	// it treat "list changed under me" as a clean read. Found by
	// seqlockcheck when the pair was annotated.
	s.retireVer.Add(1)
	old := *s.recs.Load()
	next := make([]*Rec, len(old)+1)
	copy(next, old)
	next[len(old)] = r
	s.recs.Store(&next)
	s.retireVer.Add(1)
	s.mu.Unlock()
	return r
}

// Unregister removes a record, folding its final counter values into the
// retired sum so released handles keep contributing to totals.
func (s *Sink) Unregister(r *Rec) {
	s.mu.Lock()
	s.retireVer.Add(1) // odd: fold in progress, Snapshot must not mix halves
	s.retired.Add(r.src)
	s.retPub.Store(&s.retired)
	if retireMidFold != nil {
		retireMidFold()
	}
	old := *s.recs.Load()
	next := make([]*Rec, 0, len(old))
	for _, o := range old {
		if o != r {
			next = append(next, o)
		}
	}
	s.recs.Store(&next)
	s.retireVer.Add(1) // even: retired sum and live list agree again
	s.mu.Unlock()
}

// Arm reports whether the next operation should be latency-sampled. One
// decrement and branch per operation (telemetry-enabled handles only).
func (r *Rec) Arm() bool {
	if r.sink.sampleN == 0 {
		return false
	}
	r.countdown--
	if r.countdown == 0 {
		r.countdown = r.sink.sampleN
		return true
	}
	return false
}

// Lat records a sampled operation latency.
func (r *Rec) Lat(k Kind, d time.Duration) {
	r.sink.hists[k].record(d.Nanoseconds())
}

// Batch records the accepted size of a batch operation. Unlike latency,
// batch sizes are recorded unconditionally (batch calls are already
// amortized), reusing the log-bucket histogram with items in place of
// nanoseconds.
func (r *Rec) Batch(k BatchKind, n int) {
	if n < 0 {
		n = 0
	}
	r.sink.batches[k].record(int64(n))
}

// Tick advances the publication pacing and republishes the handle's
// counters every publishInterval calls. Call once per completed operation.
func (r *Rec) Tick() {
	r.ops++
	if r.ops >= publishInterval {
		r.ops = 0
		r.pub.Store(r.src)
	}
}

// Flush force-publishes the handle's current counters (e.g. before a long
// idle period, or in tests).
func (r *Rec) Flush() { r.pub.Store(r.src) }

// LatencySnapshot summarizes one latency series.
type LatencySnapshot struct {
	Samples uint64
	SumNs   int64
	MaxNs   int64
	P50Ns   int64
	P99Ns   int64
	P999Ns  int64
}

// ChaosCount reports how often one fault-injection point fired (always zero
// without the chaos build tag).
type ChaosCount struct {
	Point string
	Fired uint64
}

// Snapshot is a point-in-time aggregate of everything the sink knows.
// Counter fields published by different handles at different times may be
// mixed; every individual counter is monotone and at most one publication
// interval stale per handle.
type Snapshot struct {
	Counters    instrument.Counters
	Handles     int // live (registered, unreleased) handles
	SampleN     int // latency sampling stride (0 = disabled)
	Latency     [NumKinds]LatencySnapshot
	BatchSizes  [NumBatchKinds]LatencySnapshot // sizes in items, not ns
	Sojourn     LatencySnapshot                // item ring-residency (sampled traces)
	EventCounts [core.NumRingEvents]uint64
	Chaos       []ChaosCount
}

// Snapshot aggregates the current telemetry. Lock-free with respect to
// operations; safe to call concurrently with everything.
func (s *Sink) Snapshot() Snapshot {
	var snap Snapshot
	snap.SampleN = int(s.sampleN)
	// Seqlock read of the counter aggregate: a retirement observed mid-read
	// would count the retiring handle both in the retired sum and in the
	// stale live list, so retry until a whole pass lands between folds.
	// Retirements are rare (handle release), so this loops at most a few
	// times in practice.
	for {
		v := s.retireVer.Load()
		if v&1 != 0 {
			runtime.Gosched()
			continue
		}
		agg := s.retPub.Load()
		recs := *s.recs.Load()
		for _, r := range recs {
			c := r.pub.Load()
			agg.Add(&c)
		}
		if s.retireVer.Load() == v {
			snap.Counters = agg
			snap.Handles = len(recs)
			break
		}
	}
	for k := range s.hists {
		snap.Latency[k] = s.hists[k].snapshot()
	}
	for k := range s.batches {
		snap.BatchSizes[k] = s.batches[k].snapshot()
	}
	snap.Sojourn = s.sojourn.snapshot()
	for ev := range s.evCount {
		snap.EventCounts[ev] = s.evCount[ev].Load()
	}
	for _, p := range chaos.Points() {
		snap.Chaos = append(snap.Chaos, ChaosCount{Point: p.String(), Fired: chaos.Fired(p)})
	}
	return snap
}

// Events returns the lifecycle trace, oldest first. Best-effort under
// concurrent writers: a slot being overwritten during the read is skipped.
func (s *Sink) Events() []Event {
	return s.events.snapshot(s.epoch)
}

// latHist is a concurrently recordable histogram sharing internal/hist's
// bucket layout: one atomic counter per bucket. Recording happens only on
// sampled operations (1-in-N), so contention is negligible.
type latHist struct {
	counts   []atomic.Uint64 // hist.NumBuckets
	overflow atomic.Uint64
	count    atomic.Uint64
	sum      atomic.Int64
	max      atomic.Int64
}

func newLatHist() *latHist {
	return &latHist{counts: make([]atomic.Uint64, hist.NumBuckets)}
}

func (l *latHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if b := hist.Bucket(ns); b >= hist.NumBuckets {
		l.overflow.Add(1)
	} else {
		l.counts[b].Add(1)
	}
	l.count.Add(1)
	l.sum.Add(ns)
	for {
		m := l.max.Load()
		if ns <= m || l.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

func (l *latHist) snapshot() LatencySnapshot {
	n := l.count.Load()
	if n == 0 {
		return LatencySnapshot{}
	}
	counts := make([]uint64, hist.NumBuckets)
	for i := range counts {
		counts[i] = l.counts[i].Load()
	}
	h := hist.FromBuckets(counts, l.overflow.Load())
	return LatencySnapshot{
		Samples: h.Count(),
		SumNs:   l.sum.Load(),
		MaxNs:   l.max.Load(),
		P50Ns:   h.Quantile(0.5),
		P99Ns:   h.Quantile(0.99),
		P999Ns:  h.Quantile(0.999),
	}
}
