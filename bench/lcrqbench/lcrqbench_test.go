package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var ramp []uint32
	for i := uint32(1); i <= 100; i++ {
		ramp = append(ramp, i)
	}
	flat := make([]uint32, 1000)
	for i := range flat {
		flat[i] = 300
	}
	for _, tc := range []struct {
		name   string
		xs     []uint32
		p      float64
		want   float64
		wantOK bool
	}{
		// 50 of 100 samples lie at or below 50, the top of 50's 1 ns bin.
		{"ramp p50", ramp, 0.5, 50.5, true},
		// Exactly minBeyond samples above rank 90.
		{"ramp p90", ramp, 0.9, 90.5, true},
		{"ramp p91", ramp, 0.91, 91.5, false},
		// Ties spread the quantile across their bin.
		{"flat p50", flat, 0.5, 300, true},
		{"flat p90", flat, 0.9, 300.4, true},
		{"flat p999", flat, 0.999, 300.499, false},
		{"single", []uint32{7}, 0.5, 7, false},
	} {
		got, ok := percentile(tc.xs, tc.p)
		if math.Abs(got-tc.want) > 1e-9 || ok != tc.wantOK {
			t.Errorf("%s: percentile = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.wantOK)
		}
	}
	tenK := make([]int64, 10000)
	for i := range tenK {
		tenK[i] = int64(i)
	}
	if _, ok := percentile(tenK, 0.999); !ok {
		t.Error("p999 of 10000 samples has 10 beyond it and should be reportable")
	}
	if _, ok := percentile([]uint32{}, 0.5); ok {
		t.Error("the percentile of no samples must not be reportable")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{10.5, 2.25, 7, 7, 1, 100, 3.5}, [3]float64{2.25, 7, 10.5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestWindowMedian(t *testing.T) {
	// Two workers' item counts at five 500 ms boundaries. The third window
	// stalled (no progress on either worker); the median ignores it.
	marks := [][]uint64{
		{0, 100, 210, 210, 300},
		{0, 90, 200, 200, 310},
	}
	rates := windowRates(marks, 0.5)
	want := []float64{380, 440, 0, 400}
	if !slices.Equal(rates, want) {
		t.Fatalf("windowRates = %v, want %v", rates, want)
	}
	if m := median(rates); m != 390 {
		t.Errorf("median window rate = %v, want 390", m)
	}
	if got := everyOther(rates, 1); !slices.Equal(got, []float64{440, 400}) {
		t.Errorf("odd windows = %v", got)
	}
}

func TestMeterMarksWindows(t *testing.T) {
	s := &schedule{measure: 1000, end: 1400, window: 100, windows: 4, trace: traceAlternate}
	m := newMeter(s, newReservoir(8, 1))
	var traced []bool
	for now := int64(900); !m.stopped; now += 10 {
		m.items++
		m.tick(now, now+5, true)
		traced = append(traced, m.traced)
	}
	if len(m.marks) != 5 {
		t.Fatalf("got %d marks, want 5 (one per boundary)", len(m.marks))
	}
	if got := windowRates(itemMarks([]*meter{&m}), 1e-7); len(got) != 4 || got[0] != got[3] {
		t.Errorf("window rates %v: want four equal windows", got)
	}
	// Latencies are kept only from untraced windows in the measured part:
	// windows 0 and 2, ten calls each, capped by the reservoir.
	if m.lat.seen != 20 || len(m.lat.buf) != 8 {
		t.Errorf("reservoir saw %d latencies and kept %d, want 20 and 8", m.lat.seen, len(m.lat.buf))
	}
	if !slices.Contains(traced, true) {
		t.Error("alternate mode never traced a window")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{50, 150, 80, 120, 60, 140, 100, 90, 110, 130}
	for _, tc := range []struct {
		name         string
		base, head   []float64
		higherBetter bool
		want         string
	}{
		{"throughput up 20%", base, scale(base, 1.2), true, improved},
		{"throughput down 20%", base, scale(base, 0.8), true, worse},
		{"throughput down 5% within bound", base, scale(base, 0.95), true, unchanged},
		{"latency down 20%", base, scale(base, 0.8), false, improved},
		{"latency up 20%", base, scale(base, 1.2), false, worse},
		{"same runs", base, slices.Clone(base), true, unchanged},
		{"spread wider than bound", noisy, scale(noisy, 0.97), true, unresolved},
		{"noisy but every head run better", noisy, scale(noisy, 3.1), true, improved},
	} {
		if c := compareRuns(tc.base, tc.head, tc.higherBetter, 0.1); c.verdict != tc.want {
			t.Errorf("%s: verdict %s (wins %d/%d, change %+.3f, spread %.3f), want %s",
				tc.name, c.verdict, c.wins, c.pairs, c.change, c.spread, tc.want)
		}
	}
}

func TestCheckerRejectsDuplicateAndReorder(t *testing.T) {
	produce := func(n uint64) tally {
		var t tally
		for s := uint64(0); s < n; s++ {
			t.add(s)
		}
		return t
	}

	clean := newChecker(2)
	for s := uint64(0); s < 3; s++ {
		clean.see(tag(0, s))
		clean.see(tag(1, s))
	}
	if bad, err := verify([]tally{produce(3), produce(3)}, clean); err != nil || bad != 0 {
		t.Fatalf("clean history rejected: %d bad, %v", bad, err)
	}

	dup := newChecker(1)
	for _, s := range []uint64{0, 1, 1, 2} {
		dup.see(tag(0, s))
	}
	if _, err := verify([]tally{produce(3)}, dup); err == nil {
		t.Error("a duplicate within one consumer was accepted")
	}

	// Each consumer sees an increasing sequence, but item 1 came out twice
	// and item 2 never did: only the tallies can tell.
	a, b := newChecker(1), newChecker(1)
	a.see(tag(0, 0))
	a.see(tag(0, 1))
	b.see(tag(0, 1))
	if _, err := verify([]tally{produce(3)}, a, b); err == nil {
		t.Error("a duplicate across consumers that hides a loss was accepted")
	}

	reorder := newChecker(1)
	reorder.see(tag(0, 1))
	if reorder.see(tag(0, 0)) {
		t.Error("see accepted a value older than one already seen")
	}
	if _, err := verify([]tally{produce(2)}, reorder); err == nil {
		t.Error("a reorder was accepted")
	}

	lost := newChecker(1)
	lost.see(tag(0, 0))
	if bad, err := verify([]tally{produce(2)}, lost); err == nil || bad != 1 {
		t.Errorf("a lost item gave %d bad, %v; want 1 and an error", bad, err)
	}
}

func TestJSONUints(t *testing.T) {
	for _, tc := range []struct {
		body, key string
		want      []uint64
	}{
		{`{"accepted":16}` + "\n", `"accepted":`, []uint64{16}},
		{`{"values":[1,22,333],"traces":[{"id":"0x1","pos":1}]}`, `"values":[`, []uint64{1, 22, 333}},
		{`{"values":[]}`, `"values":[`, nil},
	} {
		got, err := jsonUints(nil, []byte(tc.body), tc.key)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("jsonUints(%s) = %v, %v; want %v", tc.body, got, err, tc.want)
		}
	}
	if _, err := jsonUints(nil, []byte(`{"error":"full"}`), `"accepted":`); err == nil {
		t.Error("a body without the key was accepted")
	}
}

// smokeConfig is a run short enough for the test suite.
func smokeConfig() runConfig {
	return runConfig{
		seed: 7, warmup: 50 * time.Millisecond, measure: 200 * time.Millisecond,
		window: 50 * time.Millisecond, setups: 2, latCap: 1 << 12, spanCap: 1 << 8,
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		res := untracedRun(name, smokeConfig())
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%t failed=%d: %s", name, res.Correct, res.Failed, res.Error)
		}
		for _, d := range slices.Concat(endToEnd, reportOnly) {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || m.Samples == 0 {
				t.Errorf("%s: metric %s = %+v, present %t", name, d.name, m, ok)
			}
		}
		if m := res.Metrics["ops_per_s"]; !(m.Value > 0) {
			t.Errorf("%s: ops_per_s = %v", name, m.Value)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	rc := smokeConfig()
	rc.measure = time.Second // 400 ms of alternating windows, 600 ms of ledger
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	res := tracedRun("service", rc, path, os.Stderr)
	if !res.Correct {
		t.Errorf("traced run incorrect: %s", res.Error)
	}
	for _, d := range perLayer {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v, present %t", d.name, m, ok)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(b[:slices.Index(b, '\n')], &first); err != nil || first.Layer == "" {
		t.Errorf("first span %q: %v", b[:slices.Index(b, '\n')], err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which declares the benchmark and
// which -compare reads, in step with the metrics and workloads this command
// produces.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range f.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", wls, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", layer, perLayer)
	}
}
