// Package instrument defines the per-operation statistics counters used to
// reproduce Tables 2 and 3 of the LCRQ paper.
//
// The paper reports per-operation latency, instruction counts, atomic
// operation counts, and cache-miss counts obtained from hardware performance
// counters. Hardware counters are not reachable from portable Go, so this
// reproduction substitutes direct software counts of the quantities the
// paper uses those columns to explain: how many atomic instructions an
// operation issues and how much work is wasted on failed CAS attempts and
// protocol retries. See DESIGN.md §1 for the substitution rationale.
//
// Counters are plain (non-atomic) fields: each queue handle owns one Counters
// value that is only mutated by the handle's thread and aggregated after the
// workers have stopped, so counting adds no synchronization to the measured
// fast path.
package instrument

import (
	"fmt"
	"iter"
	"reflect"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Counters accumulates per-thread operation statistics. It is the only
// declaration of the counter set: each field's json tag is the counter's
// export name (the Prometheus series lcrq_<name>_total, the /statsz and
// expvar key) and its help tag the series' HELP text. Every field is a
// uint64, so a Counters is laid out as a [numCounters]uint64; Add, the
// AtomicCounters mirror and All loop over that view and the field table
// built from the tags at init.
type Counters struct {
	Enqueues uint64 `json:"enqueues" help:"Completed enqueue operations."`
	Dequeues uint64 `json:"dequeues" help:"Completed dequeue operations, empty results included."`
	Empty    uint64 `json:"dequeue_empty" help:"Dequeues that found the queue empty."`

	// Atomic instructions issued, the "Atomic operations" rows of Tables 2–3.
	FAA      uint64 `json:"faa" help:"Fetch-and-add instructions issued."`
	SWAP     uint64 `json:"swap" help:"Swap (XCHG) instructions issued."`
	TAS      uint64 `json:"tas" help:"Test-and-set instructions issued."`
	CAS      uint64 `json:"cas" help:"Single-width CAS attempts."`
	CASFail  uint64 `json:"cas_failures" help:"Single-width CAS attempts that failed."`
	CAS2     uint64 `json:"cas2" help:"Double-width CAS attempts."`
	CAS2Fail uint64 `json:"cas2_failures" help:"Double-width CAS attempts that failed."`

	// CRQ ring protocol.
	CellRetries uint64 `json:"cell_retries" help:"Extra head/tail fetch-and-adds beyond the first."`
	EmptyTrans  uint64 `json:"empty_transitions" help:"Empty transitions performed by dequeuers."`
	UnsafeTrans uint64 `json:"unsafe_transitions" help:"Unsafe transitions performed by dequeuers."`
	SpinWaits   uint64 `json:"spin_waits" help:"Bounded dequeuer waits for a matching enqueuer."`
	Closes      uint64 `json:"ring_closes" help:"Ring segments closed."`

	// SCQ ring protocol and the LCRQ list layer.
	ThresholdEmpty uint64 `json:"threshold_empties" help:"SCQ emptiness verdicts reached via the threshold trick."`
	FreeEmpty      uint64 `json:"free_empties" help:"SCQ enqueues that found the free-index queue empty (ring full)."`
	Appends        uint64 `json:"ring_appends" help:"Ring segments appended to the list."`
	Recycled       uint64 `json:"ring_recycles" help:"Appended segments satisfied from the recycler."`

	// Batch API (constituent items also count in Enqueues/Dequeues) and
	// the LCRQ+H cluster gate.
	BatchEnqueues uint64 `json:"batch_enqueues" help:"EnqueueBatch calls (items count in lcrq_enqueues_total)."`
	BatchDequeues uint64 `json:"batch_dequeues" help:"DequeueBatch calls (items count in lcrq_dequeues_total)."`
	BatchSpill    uint64 `json:"batch_spills" help:"Batches that spilled into a freshly appended ring."`
	GateSpins     uint64 `json:"gate_spins" help:"Hierarchical cluster-gate spin iterations."`

	// Item tracing.
	TraceArms uint64 `json:"trace_arms" help:"Item traces armed on the enqueue side (sampled + forced)."`
	TraceHits uint64 `json:"trace_hits" help:"Stamped items claimed and measured by dequeues."`

	// Baseline queues of the evaluation (always 0 on LCRQ).
	CombinerRuns uint64 `json:"combiner_runs" help:"Combining queues: passes a thread ran as combiner."`
	Combined     uint64 `json:"combined" help:"Combining queues: operations applied by combiners."`
	LockAcq      uint64 `json:"lock_acquisitions" help:"Lock acquisitions (blocking queues)."`
}

// numCounters is the number of counters in Counters.
const numCounters = int(unsafe.Sizeof(Counters{}) / 8)

// Field describes one Counters field: its export name and help text.
type Field struct {
	Name string
	Help string
}

// fields is the counter table, index-aligned with the words of Counters.
var fields = buildFields()

// buildFields reads the tags of Counters once. The words view behind Add,
// All and AtomicCounters is only sound while every field is a uint64 at its
// index's offset, so a declaration that breaks that panics here.
// TestCounterRegistry checks the tags themselves.
func buildFields() [numCounters]Field {
	var tab [numCounters]Field
	rt := reflect.TypeOf(Counters{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() != reflect.Uint64 || f.Offset != uintptr(8*i) {
			panic(fmt.Sprintf("instrument: Counters.%s is not the uint64 word %d", f.Name, i))
		}
		tab[i] = Field{Name: f.Tag.Get("json"), Help: f.Tag.Get("help")}
	}
	return tab
}

// words views c as its array of counters.
func (c *Counters) words() *[numCounters]uint64 {
	return (*[numCounters]uint64)(unsafe.Pointer(c))
}

// All yields every counter with its value, in declaration order.
func (c *Counters) All() iter.Seq2[Field, uint64] {
	return func(yield func(Field, uint64) bool) {
		for i, v := range c.words() {
			if !yield(fields[i], v) {
				return
			}
		}
	}
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	w, ow := c.words(), o.words()
	for i := range w {
		w[i] += ow[i]
	}
}

// Ops returns the total number of completed operations.
func (c *Counters) Ops() uint64 { return c.Enqueues + c.Dequeues }

// AtomicsPerOp returns the average number of atomic instructions (F&A, SWAP,
// T&S, CAS, CAS2) issued per completed operation — the "Atomic operations"
// row of Tables 2 and 3.
func (c *Counters) AtomicsPerOp() float64 {
	ops := c.Ops()
	if ops == 0 {
		return 0
	}
	atomics := c.FAA + c.SWAP + c.TAS + c.CAS + c.CAS2
	return float64(atomics) / float64(ops)
}

// CASFailuresPerOp returns the average number of failed CAS and CAS2
// attempts per completed operation — the quantity the paper identifies as
// the cause of contention meltdowns.
func (c *Counters) CASFailuresPerOp() float64 {
	ops := c.Ops()
	if ops == 0 {
		return 0
	}
	return float64(c.CASFail+c.CAS2Fail) / float64(ops)
}

// AtomicCounters is an atomically readable mirror of a Counters value: the
// owning thread Stores its plain counters into it at a coarse cadence, and
// any thread may Load a torn-free (per-field consistent) copy concurrently.
// This is the publication half of the telemetry layer's counter aggregation:
// the fast path keeps its plain single-writer fields, and only the amortized
// publication touches atomics. The zero value is ready to use.
type AtomicCounters struct {
	v [numCounters]atomic.Uint64
}

// Store publishes a snapshot of c. Only the owner of c may call Store, and
// not concurrently with itself.
func (a *AtomicCounters) Store(c *Counters) {
	for i, v := range c.words() {
		a.v[i].Store(v)
	}
}

// Load returns the most recently published snapshot. Safe to call from any
// thread; fields published by different Store calls may be mixed, which is
// fine for monotone counters read for monitoring.
func (a *AtomicCounters) Load() Counters {
	var c Counters
	w := c.words()
	for i := range a.v {
		w[i] = a.v[i].Load()
	}
	return c
}

// String renders the counters in a compact single-line form for logs.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d (enq=%d deq=%d empty=%d)", c.Ops(), c.Enqueues, c.Dequeues, c.Empty)
	fmt.Fprintf(&b, " atomics/op=%.2f casfail/op=%.3f", c.AtomicsPerOp(), c.CASFailuresPerOp())
	if c.Closes+c.Appends > 0 {
		fmt.Fprintf(&b, " closes=%d appends=%d recycled=%d", c.Closes, c.Appends, c.Recycled)
	}
	if c.CombinerRuns > 0 {
		fmt.Fprintf(&b, " combiner: runs=%d avg-batch=%.1f", c.CombinerRuns,
			float64(c.Combined)/float64(c.CombinerRuns))
	}
	return b.String()
}
