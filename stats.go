package lcrq

import "lcrq/internal/instrument"

// Stats is a snapshot of per-handle operation statistics, mirroring the
// quantities reported in Tables 2 and 3 of the paper. Every counter of the
// internal instrumentation layer is represented, so a public snapshot
// carries the same information the bench harness aggregates (the
// statsmirror analyzer enforces the field coverage at lint time, and
// TestStatsCoversAllCounters keeps a runtime backstop).
type Stats struct {
	Enqueues uint64 // completed enqueue operations
	Dequeues uint64 // completed dequeue operations (including empty results)
	Empty    uint64 // dequeues that found the queue empty

	FetchAdds    uint64  // fetch-and-add instructions issued
	Swaps        uint64  // swap (XCHG) instructions issued
	TestAndSets  uint64  // test-and-set instructions issued (ring closes use one)
	CASAttempts  uint64  // single-width CAS attempts
	CASFailures  uint64  // single-width CAS attempts that failed
	CAS2Attempts uint64  // double-width CAS attempts
	CAS2Failures uint64  // double-width CAS attempts that failed
	AtomicsPerOp float64 // average atomic instructions per operation

	CellRetries       uint64 // extra head/tail F&As needed beyond the first
	EmptyTransitions  uint64 // empty transitions performed
	UnsafeTransitions uint64 // unsafe transitions performed
	SpinWaits         uint64 // bounded waits for a matching enqueuer
	ThresholdEmpties  uint64 // SCQ: emptiness verdicts reached via the threshold trick
	FreeEmpties       uint64 // SCQ: enqueues that found the free-index queue empty (ring full)

	RingCloses   uint64 // ring segments this handle closed
	RingAppends  uint64 // ring segments this handle appended
	RingRecycles uint64 // appended segments satisfied from the recycler

	BatchEnqueues uint64 // EnqueueBatch calls (items accepted count in Enqueues)
	BatchDequeues uint64 // DequeueBatch calls (items returned count in Dequeues)
	BatchSpills   uint64 // batches that spilled into a freshly appended ring
	GateSpins     uint64 // hierarchical cluster-gate spin iterations

	TraceArms uint64 // item-trace stamps armed on the enqueue side (sampled + forced)
	TraceHits uint64 // stamped items this handle's dequeues claimed

	CombinerRuns     uint64 // combining queues: times this thread combined
	Combined         uint64 // combining queues: operations applied while combining
	LockAcquisitions uint64 // lock acquisitions (blocking queues)
}

// statsFromCounters transcribes every internal counter into the public
// snapshot; the annotation makes lcrqlint's statsmirror analyzer fail the
// build-gate if a Counters field is added without being plumbed through.
//
//lcrq:mirror lcrq/internal/instrument.Counters
func statsFromCounters(c *instrument.Counters) Stats {
	return Stats{
		Enqueues:          c.Enqueues,
		Dequeues:          c.Dequeues,
		Empty:             c.Empty,
		FetchAdds:         c.FAA,
		Swaps:             c.SWAP,
		TestAndSets:       c.TAS,
		CASAttempts:       c.CAS,
		CASFailures:       c.CASFail,
		CAS2Attempts:      c.CAS2,
		CAS2Failures:      c.CAS2Fail,
		AtomicsPerOp:      c.AtomicsPerOp(),
		CellRetries:       c.CellRetries,
		EmptyTransitions:  c.EmptyTrans,
		UnsafeTransitions: c.UnsafeTrans,
		SpinWaits:         c.SpinWaits,
		ThresholdEmpties:  c.ThresholdEmpty,
		FreeEmpties:       c.FreeEmpty,
		RingCloses:        c.Closes,
		RingAppends:       c.Appends,
		RingRecycles:      c.Recycled,
		BatchEnqueues:     c.BatchEnqueues,
		BatchDequeues:     c.BatchDequeues,
		BatchSpills:       c.BatchSpill,
		GateSpins:         c.GateSpins,
		TraceArms:         c.TraceArms,
		TraceHits:         c.TraceHits,
		CombinerRuns:      c.CombinerRuns,
		Combined:          c.Combined,
		LockAcquisitions:  c.LockAcq,
	}
}

// Add returns the field-wise sum of s and o (AtomicsPerOp is recomputed as
// a weighted average). The mirror annotation makes the statsmirror
// analyzer verify no Stats field is dropped from the sum.
//
//lcrq:mirror Stats
func (s Stats) Add(o Stats) Stats {
	ops := s.Enqueues + s.Dequeues + o.Enqueues + o.Dequeues
	var apo float64
	if ops > 0 {
		apo = (s.AtomicsPerOp*float64(s.Enqueues+s.Dequeues) +
			o.AtomicsPerOp*float64(o.Enqueues+o.Dequeues)) / float64(ops)
	}
	return Stats{
		Enqueues:          s.Enqueues + o.Enqueues,
		Dequeues:          s.Dequeues + o.Dequeues,
		Empty:             s.Empty + o.Empty,
		FetchAdds:         s.FetchAdds + o.FetchAdds,
		Swaps:             s.Swaps + o.Swaps,
		TestAndSets:       s.TestAndSets + o.TestAndSets,
		CASAttempts:       s.CASAttempts + o.CASAttempts,
		CASFailures:       s.CASFailures + o.CASFailures,
		CAS2Attempts:      s.CAS2Attempts + o.CAS2Attempts,
		CAS2Failures:      s.CAS2Failures + o.CAS2Failures,
		AtomicsPerOp:      apo,
		CellRetries:       s.CellRetries + o.CellRetries,
		EmptyTransitions:  s.EmptyTransitions + o.EmptyTransitions,
		UnsafeTransitions: s.UnsafeTransitions + o.UnsafeTransitions,
		SpinWaits:         s.SpinWaits + o.SpinWaits,
		ThresholdEmpties:  s.ThresholdEmpties + o.ThresholdEmpties,
		FreeEmpties:       s.FreeEmpties + o.FreeEmpties,
		RingCloses:        s.RingCloses + o.RingCloses,
		RingAppends:       s.RingAppends + o.RingAppends,
		RingRecycles:      s.RingRecycles + o.RingRecycles,
		BatchEnqueues:     s.BatchEnqueues + o.BatchEnqueues,
		BatchDequeues:     s.BatchDequeues + o.BatchDequeues,
		BatchSpills:       s.BatchSpills + o.BatchSpills,
		GateSpins:         s.GateSpins + o.GateSpins,
		TraceArms:         s.TraceArms + o.TraceArms,
		TraceHits:         s.TraceHits + o.TraceHits,
		CombinerRuns:      s.CombinerRuns + o.CombinerRuns,
		Combined:          s.Combined + o.Combined,
		LockAcquisitions:  s.LockAcquisitions + o.LockAcquisitions,
	}
}
