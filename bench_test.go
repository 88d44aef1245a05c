package lcrq

// One testing.B benchmark per table and figure of the paper, plus ablation
// benches for the design choices called out in DESIGN.md §5. These run at
// reduced scale so `go test -bench=.` finishes in minutes; the cmd/qbench
// and cmd/reproduce drivers regenerate the full figures.
//
// Throughput benches report the harness-measured "Mops" metric alongside
// the standard ns/op; for figure benches ns/op includes queue construction,
// which the Mops metric excludes.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"lcrq/internal/core"
	"lcrq/internal/counter"
	"lcrq/internal/harness"
)

// benchThreads is the thread axis used by the scaled-down figure benches.
var benchThreads = []int{1, 2, 4, 8}

// runWorkload adapts a harness workload to testing.B: the total operation
// count tracks b.N so the reported ns/op is meaningful.
func runWorkload(b *testing.B, w harness.Workload) {
	b.Helper()
	pairs := b.N / (2 * w.Threads)
	if pairs < 1 {
		pairs = 1
	}
	w.Pairs = pairs
	w.Runs = 1
	r, err := harness.Run(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Mops.Mean(), "Mops")
}

// BenchmarkFigure1 measures the contended-counter increment cost with F&A
// and with a CAS loop (Figure 1).
func BenchmarkFigure1(b *testing.B) {
	for _, mode := range []counter.Mode{counter.FAA, counter.CASLoop} {
		for _, threads := range benchThreads {
			b.Run(fmt.Sprintf("mode=%s/threads=%d", mode, threads), func(b *testing.B) {
				incs := b.N / threads
				if incs < 1 {
					incs = 1
				}
				r := counter.Run(mode, threads, incs, false)
				b.ReportMetric(r.NsPerInc, "ns/inc")
				if mode == counter.CASLoop {
					b.ReportMetric(r.CASPerInc, "CAS/inc")
				}
			})
		}
	}
}

func benchFigure(b *testing.B, figID string) {
	spec := harness.Figures()[figID]
	for _, q := range spec.Queues {
		for _, threads := range benchThreads {
			b.Run(fmt.Sprintf("queue=%s/threads=%d", q, threads), func(b *testing.B) {
				runWorkload(b, harness.Workload{
					Queue:     q,
					Threads:   threads,
					Prefill:   spec.Prefill,
					MaxDelay:  spec.MaxDelay,
					Placement: spec.Placement,
					Clusters:  spec.Clusters,
				})
			})
		}
	}
}

// BenchmarkFigure6a: single-processor throughput, queue initially empty.
func BenchmarkFigure6a(b *testing.B) { benchFigure(b, "6a") }

// BenchmarkFigure6b: oversubscription — threads beyond the hardware level.
func BenchmarkFigure6b(b *testing.B) {
	spec := harness.Figures()["6b"]
	for _, q := range spec.Queues {
		for _, mult := range []int{2, 4} {
			threads := mult * maxHW()
			b.Run(fmt.Sprintf("queue=%s/threads=%d", q, threads), func(b *testing.B) {
				runWorkload(b, harness.Workload{
					Queue:     q,
					Threads:   threads,
					MaxDelay:  spec.MaxDelay,
					Placement: spec.Placement,
				})
			})
		}
	}
}

// BenchmarkFigure7a: round-robin placement, queue pre-filled with 2^16.
func BenchmarkFigure7a(b *testing.B) { benchFigure(b, "7a") }

// BenchmarkFigure7b: round-robin placement, queue initially empty.
func BenchmarkFigure7b(b *testing.B) { benchFigure(b, "7b") }

// BenchmarkFigure8 samples operation latency and reports tail quantiles
// (the data behind the Figure 8 CDFs).
func BenchmarkFigure8(b *testing.B) {
	for _, id := range []string{"8a", "8b"} {
		spec := harness.LatencyFigures()[id]
		for _, q := range spec.Queues {
			b.Run(fmt.Sprintf("fig=%s/queue=%s", id, q), func(b *testing.B) {
				threads := min(spec.Threads, 4*maxHW())
				pairs := b.N / (2 * threads)
				if pairs < 10 {
					pairs = 10
				}
				r, err := harness.Run(harness.Workload{
					Queue: q, Threads: threads, Pairs: pairs,
					MaxDelay: spec.MaxDelay, Placement: spec.Placement,
					Clusters: spec.Clusters, Runs: 1, LatencySample: 16,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Hist.Quantile(0.5)), "p50-ns")
				b.ReportMetric(float64(r.Hist.Quantile(0.97)), "p97-ns")
			})
		}
	}
}

// BenchmarkFigure9 sweeps the CRQ ring size (Figure 9).
func BenchmarkFigure9(b *testing.B) {
	for _, order := range []int{3, 5, 7, 9, 12, 15, 17} {
		b.Run(fmt.Sprintf("ring=2^%d", order), func(b *testing.B) {
			runWorkload(b, harness.Workload{
				Queue: "lcrq", Threads: 4, MaxDelay: 100,
				Placement: harness.SingleCluster, RingOrder: order,
			})
		})
	}
}

// BenchmarkTable2 exercises the Table 2 configurations (per-op statistics
// are printed by `qbench -table 2`; here we track the throughput side).
func BenchmarkTable2(b *testing.B) {
	spec := harness.Tables()["2"]
	for _, q := range spec.Queues {
		for _, threads := range []int{1, min(20, 4*maxHW())} {
			b.Run(fmt.Sprintf("queue=%s/threads=%d", q, threads), func(b *testing.B) {
				runWorkload(b, harness.Workload{
					Queue: q, Threads: threads, MaxDelay: spec.MaxDelay,
					Placement: spec.Placement,
				})
			})
		}
	}
}

// BenchmarkTable3 exercises the Table 3 configurations (empty vs full).
func BenchmarkTable3(b *testing.B) {
	spec := harness.Tables()["3"]
	threads := min(80, 4*maxHW())
	for _, q := range spec.Queues {
		for _, prefill := range spec.Prefills {
			name := "empty"
			if prefill > 0 {
				name = "full"
			}
			b.Run(fmt.Sprintf("queue=%s/%s", q, name), func(b *testing.B) {
				runWorkload(b, harness.Workload{
					Queue: q, Threads: threads, Prefill: prefill,
					MaxDelay: spec.MaxDelay, Placement: spec.Placement,
					Clusters: spec.Clusters,
				})
			})
		}
	}
}

// ---- ablation benches (DESIGN.md §5) ----

// coreBenchParallel drives a core.LCRQ from b.RunParallel workers.
func coreBenchParallel(b *testing.B, cfg core.Config) {
	q := core.NewLCRQ(cfg)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := q.NewHandle()
		defer h.Release()
		v := ids.Add(1) << 32
		for pb.Next() {
			v++
			q.Enqueue(h, v)
			q.Dequeue(h)
		}
	})
}

// BenchmarkAblationPadding compares the default cache-remapped ring cells,
// where consecutive indices sit in different false-sharing ranges, against
// adjacent cells in index order (Config.NoPadding). Both are dense.
func BenchmarkAblationPadding(b *testing.B) {
	b.Run("remapped", func(b *testing.B) { coreBenchParallel(b, core.Config{}) })
	b.Run("adjacent", func(b *testing.B) { coreBenchParallel(b, core.Config{NoPadding: true}) })
}

// BenchmarkAblationSpin compares the bounded wait for a matching enqueuer
// (§4.1.1) against immediately poisoning the cell.
func BenchmarkAblationSpin(b *testing.B) {
	b.Run("spinwait", func(b *testing.B) { coreBenchParallel(b, core.Config{}) })
	b.Run("no-spinwait", func(b *testing.B) { coreBenchParallel(b, core.Config{SpinWait: -1}) })
}

// BenchmarkAblationFAA compares hardware F&A against its CAS-loop emulation
// (LCRQ vs LCRQ-CAS) at the raw core level.
func BenchmarkAblationFAA(b *testing.B) {
	b.Run("faa", func(b *testing.B) { coreBenchParallel(b, core.Config{}) })
	b.Run("cas-loop", func(b *testing.B) { coreBenchParallel(b, core.Config{CASLoopFAA: true}) })
}

// BenchmarkAblationTyped measures the overhead of the Typed facade (slot
// arena + per-handle slot stash, which keeps the shared free list off this
// closed loop) over the raw uint64 queue.
func BenchmarkAblationTyped(b *testing.B) {
	b.Run("raw", func(b *testing.B) {
		q := New()
		b.RunParallel(func(pb *testing.PB) {
			h := q.NewHandle()
			defer h.Release()
			v := uint64(0)
			for pb.Next() {
				v++
				h.Enqueue(v)
				h.Dequeue()
			}
		})
	})
	b.Run("typed", func(b *testing.B) {
		q := NewTyped[uint64]()
		b.RunParallel(func(pb *testing.PB) {
			h := q.NewHandle()
			defer h.Release()
			v := uint64(0)
			for pb.Next() {
				v++
				h.Enqueue(v)
				h.Dequeue()
			}
		})
	})
	b.Run("pooled-convenience", func(b *testing.B) {
		q := New()
		b.RunParallel(func(pb *testing.PB) {
			v := uint64(0)
			for pb.Next() {
				v++
				q.Enqueue(v)
				q.Dequeue()
			}
		})
	})
}

// BenchmarkTypedBatchSplit moves values in batches from a producer handle's
// EnqueueBatch to a consumer handle's DequeueBatch, so every slot index
// travels from the consumer's stash back to the producer's through the
// shared free list. Both handles run on one goroutine, which keeps the
// number free of scheduling noise. ns/op is per value.
func BenchmarkTypedBatchSplit(b *testing.B) {
	for _, k := range []int{8, 128} {
		b.Run(fmt.Sprintf("batch-%d", k), func(b *testing.B) {
			q := NewTyped[uint64]()
			prod, cons := q.NewHandle(), q.NewHandle()
			defer prod.Release()
			defer cons.Release()
			vs, out := make([]uint64, k), make([]uint64, k)
			b.ReportAllocs()
			for done := 0; done < b.N; done += k {
				prod.EnqueueBatch(vs)
				cons.DequeueBatch(out)
			}
		})
	}
}

// BenchmarkChannelComparison pits the raw queue against a buffered Go
// channel on the same enqueue/dequeue-pair workload (not a figure from the
// paper — a baseline Go readers expect; note the semantics differ: channel
// receive blocks where Dequeue returns EMPTY).
func BenchmarkChannelComparison(b *testing.B) {
	b.Run("lcrq", func(b *testing.B) {
		q := New()
		b.RunParallel(func(pb *testing.PB) {
			h := q.NewHandle()
			defer h.Release()
			v := uint64(0)
			for pb.Next() {
				v++
				h.Enqueue(v)
				h.Dequeue()
			}
		})
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan uint64, 1<<16)
		b.RunParallel(func(pb *testing.PB) {
			v := uint64(0)
			for pb.Next() {
				v++
				ch <- v
				select {
				case <-ch:
				default:
				}
			}
		})
	})
}

// BenchmarkUncontended measures the single-threaded fast path of every
// public entry point.
func BenchmarkUncontended(b *testing.B) {
	b.Run("handle", func(b *testing.B) {
		q := New()
		h := q.NewHandle()
		defer h.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Enqueue(uint64(i))
			h.Dequeue()
		}
	})
	b.Run("typed-handle", func(b *testing.B) {
		q := NewTyped[int]()
		h := q.NewHandle()
		defer h.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Enqueue(i)
			h.Dequeue()
		}
	})
}

func maxHW() int {
	if n := runtime.NumCPU(); n > 0 {
		return n
	}
	return 1
}

// BenchmarkEnqueueDequeue measures the telemetry layer's fast-path cost:
// "off" is the default build (nil-check only), "on" enables counters with
// the default 1-in-1024 latency sampling, and "sampled-64" exaggerates the
// sampling rate 16×. Compare off against historical numbers (or against
// BenchmarkUncontended/handle) to confirm the disabled layer is free.
func BenchmarkEnqueueDequeue(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"off", nil},
		{"on", []Option{WithTelemetry()}},
		{"sampled-64", []Option{WithLatencySampling(64)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := New(tc.opts...)
			h := q.NewHandle()
			defer h.Release()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Enqueue(uint64(i))
				h.Dequeue()
			}
		})
		b.Run(tc.name+"-parallel", func(b *testing.B) {
			q := New(tc.opts...)
			b.RunParallel(func(pb *testing.PB) {
				h := q.NewHandle()
				defer h.Release()
				var i uint64
				for pb.Next() {
					h.Enqueue(i)
					h.Dequeue()
					i++
				}
			})
		})
	}
}
