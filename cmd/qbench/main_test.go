package main

import (
	"slices"
	"testing"

	"lcrq/internal/harness"
)

// TestBatchSpec: the batch study runs the spec's own thread count unless
// -threads was given, and then the largest value given, even below the
// spec's.
func TestBatchSpec(t *testing.T) {
	if got, want := batchSpec(64, "", nil).Threads, harness.BatchSweep().Threads; got != want {
		t.Errorf("no -threads: %d threads, want the spec's %d", got, want)
	}
	if got := batchSpec(64, "", []int{2}).Threads; got != 2 {
		t.Errorf("-threads 2: %d threads, want 2", got)
	}
	spec := batchSpec(10, "scq,lcrq", []int{1, 8, 2})
	if spec.Threads != 8 || spec.Queue != "scq" || !slices.Equal(spec.Sizes, []int{1, 4, 10}) {
		t.Errorf("batchSpec(10, scq,lcrq, 1,8,2) = %d threads of %q, sizes %v; want 8 of scq, [1 4 10]",
			spec.Threads, spec.Queue, spec.Sizes)
	}
}
