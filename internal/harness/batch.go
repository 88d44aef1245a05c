package harness

import (
	"fmt"
)

// ---- Batch sweep (extension): batched operations, one F&A per k items ----

// BatchSweepSpec declares a batch-size sensitivity study: the same pairs
// workload executed with EnqueueBatch/DequeueBatch blocks of each size in
// Sizes (1 = the plain per-item loop, the baseline).
type BatchSweepSpec struct {
	ID        string
	Title     string
	Queue     string // swept queue (must support batch operations for k > 1)
	Threads   int
	Placement Placement
	Clusters  int
	Sizes     []int // batch sizes to sweep
	MaxDelay  int
}

// BatchSweep returns the default batch-size study specification.
func BatchSweep() BatchSweepSpec {
	return BatchSweepSpec{
		ID:       "batch",
		Title:    "Batched operations: one fetch-and-add per k items",
		Queue:    "lcrq",
		Threads:  4,
		Sizes:    []int{1, 4, 16, 64},
		MaxDelay: 100,
	}
}

// BatchPoint is one measurement of a batch sweep.
type BatchPoint struct {
	K          int     `json:"k"`            // batch size
	Mops       float64 `json:"mops"`         // item throughput, million ops/s
	CI         float64 `json:"ci95"`         // 95% confidence half-width
	FAAPerItem float64 `json:"faa_per_item"` // F&A instructions per completed item op
	Spills     uint64  `json:"spills"`       // batches that spilled into a new ring
}

// BatchSweepResult is the data behind one batch sweep.
type BatchSweepResult struct {
	Spec    BatchSweepSpec
	Points  []BatchPoint
	Results []*Result // full per-size results, parallel to Points
}

// RunBatchSweep measures the queue at each batch size. The F&A-per-item
// column is the sweep's point: the batched reservation issues one
// fetch-and-add per block instead of one per item, so the ratio should fall
// roughly as 1/k until protocol retries dominate.
func RunBatchSweep(spec BatchSweepSpec, sc Scale) (*BatchSweepResult, error) {
	out := &BatchSweepResult{Spec: spec}
	threads := spec.Threads
	if sc.MaxThreads > 0 && threads > sc.MaxThreads {
		threads = sc.MaxThreads
	}
	for _, k := range spec.Sizes {
		w := Workload{
			Queue:     spec.Queue,
			Threads:   threads,
			Pairs:     sc.pairs(),
			MaxDelay:  spec.MaxDelay,
			Placement: spec.Placement,
			Clusters:  spec.Clusters,
			RingOrder: sc.RingOrder,
			Runs:      sc.runs(),
			Pin:       sc.Pin,
			Batch:     k,
		}
		r, err := Run(w)
		if err != nil {
			return nil, fmt.Errorf("batch sweep %s at k=%d: %w", spec.ID, k, err)
		}
		p := BatchPoint{
			K:      k,
			Mops:   r.Mops.Mean(),
			CI:     r.Mops.CI95(),
			Spills: r.Counters.BatchSpill,
		}
		if ops := r.Counters.Ops(); ops > 0 {
			p.FAAPerItem = float64(r.Counters.FAA) / float64(ops)
		}
		out.Points = append(out.Points, p)
		out.Results = append(out.Results, r)
	}
	return out, nil
}
