package main

import (
	"math"
	"runtime/metrics"
	"time"
)

// epoch anchors clock(). time.Since reads the monotonic clock.
var epoch = time.Now()

// clock returns monotonic nanoseconds since the process started.
func clock() int64 { return int64(time.Since(epoch)) }

// Trace modes of a schedule.
const (
	traceOff = iota
	// traceAlternate makes every odd window a traced one, so the traced and
	// untraced rates come from interleaved windows and host drift falls on
	// both alike.
	traceAlternate
	traceAll
)

// schedule fixes, in clock() readings, when a run's measured part begins
// and ends. Everything before measure is warm-up and is discarded.
type schedule struct {
	measure int64 // end of warm-up and start of the first window
	end     int64 // measure + windows × window
	window  int64
	windows int
	trace   int
}

// newSchedule starts a schedule now: warm-up, then windows of the given
// length filling the measured duration.
func newSchedule(warmup, measure, window time.Duration, trace int) *schedule {
	n := max(1, int(math.Round(float64(measure)/float64(window))))
	if trace == traceAlternate {
		n = max(2, n)
	}
	start := clock() + int64(warmup)
	return &schedule{
		measure: start,
		end:     start + int64(n)*int64(window),
		window:  int64(window),
		windows: n,
		trace:   trace,
	}
}

func (s *schedule) measuredSeconds() float64 { return float64(s.end-s.measure) / 1e9 }

// sleepUntil blocks until clock() reaches t.
func sleepUntil(t int64) { time.Sleep(time.Duration(t - clock())) }

// reservoir keeps a uniform sample of the latencies offered to it in a
// buffer allocated up front, so sampling never allocates while measuring.
type reservoir struct {
	buf  []uint32 // ns
	seen uint64
	rng  uint64
}

func newReservoir(capacity int, seed uint64) reservoir {
	return reservoir{buf: make([]uint32, 0, capacity), rng: seed | 1}
}

func (r *reservoir) add(ns int64) {
	d := uint32(min(ns, math.MaxUint32))
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if i := r.rng % r.seen; i < uint64(len(r.buf)) {
		r.buf[i] = d
	}
}

// mark is a caller's cumulative progress at one window boundary.
type mark struct{ items, calls uint64 }

// meter is the measuring state of one load-generating goroutine: its
// progress counters, the window marks, and a sample of the latencies of
// its timed calls in the measured part. It is owned by that goroutine.
type meter struct {
	s        *schedule
	items    uint64 // items enqueued plus items dequeued
	calls    uint64 // calls issued, empty dequeues and failures included
	failed   uint64 // calls that failed
	nextMark int64
	traced   bool // the current window is a traced one
	stopped  bool // the schedule's end has passed
	marks    []mark
	lat      reservoir
}

func newMeter(s *schedule, lat reservoir) meter {
	return meter{
		s:        s,
		nextMark: s.measure,
		traced:   s.trace == traceAll,
		marks:    make([]mark, 0, s.windows+1),
		lat:      lat,
	}
}

// tick accounts one timed call that ran from t0 to t1: the window
// boundaries that passed before it started, then its latency if sample is
// set and the call started in the measured part of an untraced window. It
// reports whether the latency was kept. The caller counts the call's items
// after tick, so a mark holds the progress made before the call.
func (m *meter) tick(t0, t1 int64, sample bool) bool {
	for !m.stopped && t0 >= m.nextMark {
		m.marks = append(m.marks, mark{m.items, m.calls})
		if m.nextMark >= m.s.end {
			m.stopped = true
			break
		}
		m.nextMark += m.s.window
		m.traced = m.s.trace == traceAll || m.s.trace == traceAlternate && len(m.marks)%2 == 0
	}
	kept := sample && !m.traced && !m.stopped && len(m.marks) > 0
	if kept {
		m.lat.add(t1 - t0)
	}
	return kept
}

// measured returns the items and calls made between the first and last
// marks.
func (m *meter) measured() (items, calls uint64) {
	if len(m.marks) < 2 {
		return 0, 0
	}
	first, last := m.marks[0], m.marks[len(m.marks)-1]
	return last.items - first.items, last.calls - first.calls
}

func itemMarks(ms []*meter) [][]uint64 {
	out := make([][]uint64, len(ms))
	for i, m := range ms {
		for _, mk := range m.marks {
			out[i] = append(out[i], mk.items)
		}
	}
	return out
}

// heapAllocBytes returns the cumulative bytes allocated on the heap. Unlike
// runtime.ReadMemStats it does not stop the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
