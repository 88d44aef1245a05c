package harness

import (
	"testing"
	"time"
)

func tiny() Scale { return Scale{Pairs: 300, Runs: 1, MaxThreads: 4} }

func TestRunBasic(t *testing.T) {
	r, err := Run(Workload{
		Queue: "lcrq", Threads: 3, Pairs: 500, MaxDelay: 20,
		Placement: SingleCluster, Runs: 2, RingOrder: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mops.N() != 2 {
		t.Fatalf("runs recorded = %d", r.Mops.N())
	}
	if r.Mops.Mean() <= 0 {
		t.Fatal("no throughput measured")
	}
	if r.OpsPerRun != 2*3*500 {
		t.Fatalf("OpsPerRun = %d", r.OpsPerRun)
	}
	// Counters must cover both runs: 2 runs × 3 threads × 500 pairs × 2 ops.
	if got := r.Counters.Ops(); got != 2*2*3*500 {
		t.Fatalf("counter ops = %d", got)
	}
}

func TestRunEveryQueueSmoke(t *testing.T) {
	for _, name := range []string{"lcrq", "lcrq-cas", "lcrq+h", "cc-queue",
		"h-queue", "fc-queue", "ms-queue", "twolock", "channel"} {
		t.Run(name, func(t *testing.T) {
			r, err := Run(Workload{
				Queue: name, Threads: 4, Pairs: 200, MaxDelay: 10,
				Placement: RoundRobin, Clusters: 2, Runs: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Mops.Mean() <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Workload{Queue: "lcrq", Threads: 0, Pairs: 1}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := Run(Workload{Queue: "lcrq", Threads: 1, Pairs: 0}); err == nil {
		t.Fatal("zero pairs accepted")
	}
	if _, err := Run(Workload{Queue: "nope", Threads: 1, Pairs: 1}); err == nil {
		t.Fatal("unknown queue accepted")
	}
	if _, err := Run(Workload{Queue: "lcrq", Threads: 1, Pairs: 1, Placement: Placement(9)}); err == nil {
		t.Fatal("bad placement accepted")
	}
}

func TestPrefillCounted(t *testing.T) {
	r, err := Run(Workload{
		Queue: "lcrq", Threads: 2, Pairs: 100, Prefill: 5000,
		Placement: SingleCluster, Runs: 1, RingOrder: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Prefill enqueues are performed outside the measured loop but appear
	// in no counters (the prefill handle is discarded); worker ops only.
	if got := r.Counters.Ops(); got != 2*2*100 {
		t.Fatalf("counter ops = %d", got)
	}
}

func TestLatencySampling(t *testing.T) {
	r, err := Run(Workload{
		Queue: "lcrq", Threads: 2, Pairs: 2000, Placement: SingleCluster,
		Runs: 1, LatencySample: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Hist == nil || r.Hist.Count() == 0 {
		t.Fatal("no latency samples collected")
	}
	// 2 threads × 4000 ops, every 4th sampled → about 2000 samples.
	if n := r.Hist.Count(); n < 1500 || n > 2500 {
		t.Fatalf("sample count = %d, want ≈2000", n)
	}
	if r.Hist.Quantile(0.5) <= 0 {
		t.Fatal("nonpositive median latency")
	}
}

func TestSpinWaitRoughCalibration(t *testing.T) {
	spinWait(1) // force calibration
	t0 := time.Now()
	const per = 10000
	for i := 0; i < 200; i++ {
		spinWait(per)
	}
	got := time.Since(t0).Nanoseconds()
	want := int64(200 * per)
	// Very loose bounds: scheduling noise is fine, order of magnitude isn't.
	if got < want/20 || got > want*100 {
		t.Fatalf("200 spinWait(%d) took %d ns, want about %d", per, got, want)
	}
	spinWait(0)  // no-op path
	spinWait(-5) // no-op path
}

func TestRunFigureScaled(t *testing.T) {
	spec := FigureSpec{
		ID: "test", Queues: []string{"lcrq", "ms-queue"},
		Threads: []int{1, 2, 8}, Placement: SingleCluster, MaxDelay: 10,
	}
	res, err := RunFigure(spec, Scale{Pairs: 200, Runs: 1, MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 { // 8 was clipped by MaxThreads
			t.Fatalf("%s: points = %d, want 2", s.Queue, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mops <= 0 {
				t.Fatalf("%s @%d: zero throughput", s.Queue, p.X)
			}
		}
	}
}

func TestRunFigureThreadOverride(t *testing.T) {
	spec := Figures()["6a"]
	spec.Queues = []string{"lcrq"}
	res, err := RunFigure(spec, Scale{Pairs: 100, Runs: 1, Threads: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 2 || pts[0].X != 1 || pts[1].X != 3 {
		t.Fatalf("points = %+v", pts)
	}
}

func TestFigureSpecsWellFormed(t *testing.T) {
	for id, spec := range Figures() {
		if spec.ID != id {
			t.Fatalf("figure %s has ID %s", id, spec.ID)
		}
		if len(spec.Queues) == 0 || len(spec.Threads) == 0 {
			t.Fatalf("figure %s empty", id)
		}
	}
	for id, spec := range LatencyFigures() {
		if spec.ID != id || len(spec.Queues) == 0 || spec.Threads == 0 {
			t.Fatalf("latency figure %s malformed", id)
		}
	}
	for id, spec := range RingSweeps() {
		if spec.ID != id || spec.Queue == "" || len(spec.Orders) == 0 {
			t.Fatalf("ring sweep %s malformed", id)
		}
	}
	for id, spec := range Tables() {
		if spec.ID != id || len(spec.Queues) == 0 {
			t.Fatalf("table %s malformed", id)
		}
	}
}

func TestRunLatencyFigureScaled(t *testing.T) {
	spec := LatencySpec{
		ID: "t", Queues: []string{"lcrq", "cc-queue"}, Threads: 8,
		Placement: SingleCluster, MaxDelay: 10,
	}
	res, err := RunLatencyFigure(spec, Scale{Pairs: 1000, MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.Hist == nil || s.Hist.Count() == 0 {
			t.Fatalf("%s: empty histogram", s.Queue)
		}
		if s.MeanNs <= 0 {
			t.Fatalf("%s: MeanNs = %v", s.Queue, s.MeanNs)
		}
	}
}

func TestRunRingSweepScaled(t *testing.T) {
	spec := RingSweepSpec{
		ID: "t", Queue: "lcrq", References: []string{"cc-queue"},
		Threads: 4, Placement: SingleCluster, Orders: []int{3, 6}, MaxDelay: 10,
	}
	res, err := RunRingSweep(spec, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Swept.Points) != 2 {
		t.Fatalf("swept points = %d", len(res.Swept.Points))
	}
	if len(res.References) != 1 || res.RefNames[0] != "cc-queue" {
		t.Fatalf("references: %v %v", res.References, res.RefNames)
	}
}

func TestRunTableScaled(t *testing.T) {
	spec := TableSpec{
		ID: "t", Queues: []string{"lcrq", "ms-queue"}, Threads: []int{1, 4},
		Placement: SingleCluster, Prefills: []int{0, 100}, MaxDelay: 10,
	}
	res, err := RunTable(spec, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.LatencyUs <= 0 || c.AtomicsPerOp <= 0 {
			t.Fatalf("cell %+v has empty stats", c)
		}
	}
}

func TestOversubscriptionRuns(t *testing.T) {
	// More threads than this host can possibly have; must still complete.
	r, err := Run(Workload{
		Queue: "lcrq", Threads: 32, Pairs: 50,
		Placement: SingleCluster, Runs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Ops() != 2*32*50 {
		t.Fatalf("ops = %d", r.Counters.Ops())
	}
}

func TestVerifyConservation(t *testing.T) {
	// Every registered queue must conserve items under the pairs workload
	// with prefill; this doubles as a deep end-to-end correctness check of
	// the harness accounting itself.
	for _, name := range []string{"lcrq", "cc-queue", "fc-queue", "ms-queue"} {
		t.Run(name, func(t *testing.T) {
			_, err := Run(Workload{
				Queue: name, Threads: 4, Pairs: 1000, Prefill: 333,
				Placement: SingleCluster, Runs: 2, Verify: true, RingOrder: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPlacementString(t *testing.T) {
	if SingleCluster.String() != "single-cluster" || RoundRobin.String() != "round-robin" {
		t.Fatal("placement labels wrong")
	}
}
