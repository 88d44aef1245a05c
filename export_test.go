package lcrq

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exporter")

// goldenMetrics returns a Metrics snapshot in which every counter and gauge
// holds a distinct value, so a series that is dropped, renamed or wired to
// the wrong field changes the golden output.
func goldenMetrics() Metrics {
	var c Stats
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(1000 + 7*uint64(i))
	}
	lat := func(base time.Duration) LatencySummary {
		return LatencySummary{Samples: 40, Mean: base, P50: base, P99: 3 * base, P999: 5 * base, Max: 9 * base}
	}
	return Metrics{
		Stats:            c,
		Handles:          3,
		SampleN:          1024,
		TraceSampleN:     64,
		Depth:            17,
		LiveRings:        4,
		RecyclerRings:    2,
		Closed:           true,
		Capacity:         4096,
		MaxRings:         6,
		Items:            15,
		CapacityRejects:  11,
		OrphanRecoveries: 1,
		Health:           Health{OK: true, Verdict: "ok", Checks: 12},
		Enqueue:          lat(200 * time.Nanosecond),
		Dequeue:          lat(300 * time.Nanosecond),
		DequeueWait:      lat(7 * time.Microsecond),
		EnqueueWait:      lat(9 * time.Microsecond),
		Sojourn:          lat(40 * time.Microsecond),
		EnqueueBatch:     BatchSummary{Batches: 5, Items: 80, Mean: 16, P50: 16, P99: 31, Max: 32},
		DequeueBatch:     BatchSummary{Batches: 6, Items: 90, Mean: 15, P50: 15, P99: 29, Max: 30},
		RingEvents:       map[string]uint64{"ring-append": 21, "ring-close": 22, "queue-close": 1},
		Chaos:            map[string]uint64{"enq-cas2-fail": 5, "deq-stall": 0},
	}
}

// TestPrometheusGolden pins the whole /metrics document: every series name,
// HELP string, type and value. Regenerate with `go test -run
// TestPrometheusGolden -update .` and review the diff.
func TestPrometheusGolden(t *testing.T) {
	var b bytes.Buffer
	WritePrometheus(&b, goldenMetrics())
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("WritePrometheus output differs from %s (rerun with -update and review the diff):\n%s", path, b.String())
	}
}
