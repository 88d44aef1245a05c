package harness

import (
	"strings"
	"testing"
)

// TestBatchWorkloadVerify runs the batched workload with the conservation
// check on: every enqueued item must be accounted for after the post-run
// drain, and the batch counters must show the batched path actually ran.
func TestBatchWorkloadVerify(t *testing.T) {
	r, err := Run(Workload{
		Queue: "lcrq", Threads: 3, Pairs: 240, Batch: 8, MaxDelay: 10,
		Placement: SingleCluster, Runs: 2, RingOrder: 4, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mops.Mean() <= 0 {
		t.Fatal("no throughput measured")
	}
	if r.Counters.BatchEnqueues == 0 || r.Counters.BatchDequeues == 0 {
		t.Fatalf("batch counters empty: enq=%d deq=%d",
			r.Counters.BatchEnqueues, r.Counters.BatchDequeues)
	}
	// Item volume matches the pairs workload: Pairs items enqueued per
	// thread per run, all of them batched.
	if want := uint64(2 * 3 * 240); r.Counters.Enqueues != want {
		t.Fatalf("constituent enqueues = %d, want %d", r.Counters.Enqueues, want)
	}
	// One F&A reserves a whole block, so the batched run must spend far
	// fewer F&As per item than the one-per-op baseline.
	perItem := float64(r.Counters.FAA) / float64(r.Counters.Ops())
	if perItem >= 1 {
		t.Fatalf("F&A per item = %.2f; batching amortized nothing", perItem)
	}
}

// TestBatchWorkloadValidation pins the rejection rule: queues without batch
// handles are refused with a diagnostic naming the capability.
func TestBatchWorkloadValidation(t *testing.T) {
	_, err := Run(Workload{Queue: "ms-queue", Threads: 1, Pairs: 10, Batch: 4})
	if err == nil {
		t.Fatal("batch workload on a queue without batch support accepted")
	}
	if !strings.Contains(err.Error(), "batch") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestRunBatchSweepSmoke runs a tiny two-point sweep and checks the result
// shape and the amortization signal: the larger block size must spend fewer
// F&As per item.
func TestRunBatchSweepSmoke(t *testing.T) {
	spec := BatchSweep()
	spec.Threads = 2
	spec.Sizes = []int{1, 16}
	res, err := RunBatchSweep(spec, Scale{Pairs: 2000, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for i, k := range spec.Sizes {
		p := res.Points[i]
		if p.K != k {
			t.Fatalf("point %d has K=%d, want %d", i, p.K, k)
		}
		if p.Mops <= 0 || p.FAAPerItem <= 0 {
			t.Fatalf("point %d degenerate: %+v", i, p)
		}
	}
	if res.Points[1].FAAPerItem >= res.Points[0].FAAPerItem {
		t.Fatalf("no amortization: k=1 %.3f vs k=16 %.3f F&A/item",
			res.Points[0].FAAPerItem, res.Points[1].FAAPerItem)
	}
}
