package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"time"

	"lcrq/internal/atomic128"
	"lcrq/internal/core"
	"lcrq/internal/instrument"
)

// The per-layer ledger times each layer's entry point from outside with the
// op stream of the workload that layer matters to, one row per entry
// point. A layer's self time is its row's cost minus the row of the layer
// below, so the pairs stream's delays and the timing overhead, common to
// every pairs row, cancel.

// rowSample is what one or more runs of a ledger row measured.
type rowSample struct {
	threadSec  float64 // measured seconds summed over threads
	calls      float64 // calls (pairs rows: enqueues + dequeues) or CAS2 attempts
	c          instrument.Counters
	deqs       float64 // dequeue calls, over the same span as c
	empties    float64
	maxRings   int64
	lat        []uint32 // enqueue latencies (handle row) or request times (in-process server row), ns
	allocBytes float64
	allocOps   float64
	svc        []*serviceStats
	attempted  uint64
	failed     uint64
	err        error
}

func (a *rowSample) merge(b rowSample) {
	a.threadSec += b.threadSec
	a.calls += b.calls
	a.c.Add(&b.c)
	a.deqs += b.deqs
	a.empties += b.empties
	a.maxRings = max(a.maxRings, b.maxRings)
	a.lat = append(a.lat, b.lat...)
	a.allocBytes += b.allocBytes
	a.allocOps += b.allocOps
	a.svc = append(a.svc, b.svc...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.err = errors.Join(a.err, b.err)
}

// nsPerCall is the time one thread spends per call (or CAS2 attempt).
func (a *rowSample) nsPerCall() float64 { return ratio(a.threadSec*1e9, a.calls) }

// pairNs is the time one thread spends per enqueue+dequeue pair, delays
// included.
func (a *rowSample) pairNs() float64 { return 2 * a.nsPerCall() }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

type ledgerRow struct {
	name string
	run  func(rc runConfig) rowSample
}

func ledgerRows() []ledgerRow {
	lib := func(sh shape, layer string, newQueue func() libQueue) func(runConfig) rowSample {
		return func(rc runConfig) rowSample { return libRow(libSpec{sh, layer, newQueue}, rc) }
	}
	handleFull := lib(pairsShape, "lcrq.handle", func() libQueue { return newHandleQueue(typedFullOptions()...) })
	return []ledgerRow{
		{"atomic128.cas2", func(rc runConfig) rowSample { return cas2Row(rc, 1) }},
		{"atomic128.cas2_contended", func(rc runConfig) rowSample { return cas2Row(rc, workers) }},
		{"core.ring", lib(pairsShape, "core.ring", func() libQueue { return newRingQueue(core.RingCAS2) })},
		{"core.ring.scq", lib(pairsShape, "core.ring", func() libQueue { return newRingQueue(core.RingSCQ) })},
		{"core.list", lib(pairsShape, "core.list", func() libQueue { return newListQueue(core.Config{}) })},
		{"core.list.burst", lib(burstShape, "core.list", func() libQueue { return newListQueue(core.Config{}) })},
		{"lcrq.handle", lib(pairsShape, "lcrq.handle", func() libQueue { return newHandleQueue() })},
		{"lcrq.handle.full", func(rc runConfig) rowSample {
			rc.enqCap = rc.latCap
			return handleFull(rc)
		}},
		{"lcrq.typed", lib(pairsShape, "lcrq.typed", func() libQueue { return newTypedQueue(typedFullOptions()...) })},
		{"server.inproc", inprocRow},
		{"service", func(rc runConfig) rowSample {
			rc.trace = traceAll
			o := runService(rc)
			return rowSample{svc: []*serviceStats{o.svc}, attempted: o.attempted, failed: o.failed, err: o.err}
		}},
	}
}

// runLedger runs every ledger row rounds times within budget. Rows are
// interleaved and every other round runs them in reverse, so host drift
// during the ledger falls on all rows alike.
func runLedger(seed uint64, budget time.Duration, rounds int) map[string]*rowSample {
	rows := ledgerRows()
	per := budget / time.Duration(len(rows)*rounds)
	rc := runConfig{
		seed:    seed,
		warmup:  per / 4,
		measure: per,
		window:  per,
		setups:  1,
		latCap:  1 << 16,
		spanCap: 1 << 10,
	}
	out := map[string]*rowSample{}
	for r := 0; r < rounds; r++ {
		order := slices.Clone(rows)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, row := range order {
			if out[row.name] == nil {
				out[row.name] = &rowSample{}
			}
			out[row.name].merge(row.run(rc))
		}
	}
	return out
}

// libRow runs one library ledger row.
func libRow(spec libSpec, rc runConfig) rowSample {
	o := runLib(spec, rc)
	r := rowSample{c: o.counters, deqs: float64(o.deqs), empties: float64(o.empties), maxRings: o.maxRings,
		lat: o.enqLat, allocBytes: float64(o.allocBytes), attempted: o.attempted, failed: o.failed, err: o.err}
	for _, m := range o.meters {
		items, calls := m.measured()
		r.threadSec += o.sched.measuredSeconds()
		r.calls += float64(calls)
		r.allocOps += float64(items)
	}
	return r
}

// cas2Row times load-load-CAS2 increments of one shared cell on threads
// threads: with one thread every CAS2 succeeds, with two they contend for
// the cell as ring cells are contended.
func cas2Row(rc runConfig, threads int) rowSample {
	cell := &atomic128.AlignedUint128s(1)[0]
	s := newSchedule(rc.warmup, rc.measure, rc.measure, traceOff)
	res := make([]rowSample, threads)
	onThreads(threads, pinCPUs(), func(i int) {
		var n, first uint64
		var tFirst int64
		for {
			for k := 0; k < 1024; k++ {
				lo, hi := cell.LoadLo(), cell.LoadHi()
				cell.CompareAndSwap(lo, hi, lo+1, hi)
			}
			n += 1024
			t := clock()
			if tFirst == 0 && t >= s.measure {
				first, tFirst = n, t
			}
			if t >= s.end {
				res[i] = rowSample{threadSec: float64(t-tFirst) / 1e9, calls: float64(n - first)}
				return
			}
		}
	})
	var r rowSample
	for _, x := range res {
		r.merge(x)
	}
	return r
}

// inprocRow sends the service workload's request stream — an enqueue of
// svcBatch values, then a dequeue of as many — straight into the server's
// handler with httptest.NewRecorder: the server's cost without a network.
// Request times cover ServeHTTP alone; allocation covers the whole loop,
// including each request and recorder the stream builds.
func inprocRow(rc runConfig) rowSample {
	q, srv := newServer()
	defer srv.Close()
	h := srv.Handler()
	s := newSchedule(rc.warmup, rc.measure, rc.measure, traceOff)
	var (
		r        = rowSample{lat: make([]uint32, 0, rc.latCap)}
		produced tally
		seen     = newChecker(1)
		seq      uint64
		body     []byte
		vals     []uint64
		ms0, ms1 runtime.MemStats
		reqs     uint64
		tFirst   int64
	)
	serve := func(path string, body []byte) (*httptest.ResponseRecorder, bool) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		t0 := clock()
		h.ServeHTTP(rec, req)
		t1 := clock()
		r.attempted++
		if tFirst != 0 {
			reqs++
			if len(r.lat) < cap(r.lat) {
				r.lat = append(r.lat, uint32(t1-t0))
			}
		}
		if rec.Code != http.StatusOK {
			r.failed++
			return rec, false
		}
		return rec, true
	}
	for {
		t := clock()
		if tFirst == 0 && t >= s.measure {
			runtime.ReadMemStats(&ms0)
			tFirst = t
		}
		if t >= s.end {
			break
		}
		body = append(body[:0], `{"values":[`...)
		for i := uint64(0); i < svcBatch; i++ {
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendUint(body, tag(0, seq+i), 10)
		}
		body = append(body, "]}"...)
		if rec, ok := serve("/v1/enqueue", body); ok {
			n, err := jsonUints(nil, rec.Body.Bytes(), `"accepted":`)
			if err != nil || len(n) != 1 {
				r.failed++
				continue
			}
			for i := uint64(0); i < n[0]; i++ {
				produced.add(seq)
				seq++
			}
		}
		if rec, ok := serve("/v1/dequeue", []byte(`{"max":16}`)); ok {
			var err error
			vals, err = jsonUints(vals[:0], rec.Body.Bytes(), `"values":[`)
			if err != nil {
				r.failed++
			}
			for _, v := range vals {
				seen.see(v)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	r.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	r.allocOps = float64(reqs)
	drain := newChecker(1)
	q.Drain(func(v uint64) { drain.see(v) })
	bad, err := verify([]tally{produced}, seen, drain)
	r.failed += bad
	r.err = err
	return r
}

// jsonUints appends to dst the unsigned integers that follow key in body,
// up to the next '}' or ']': the one number of {"accepted":16}, or the
// array of {"values":[1,2]}. It allocates nothing, so the in-process row's
// allocation is the server's and the request stream's alone.
func jsonUints(dst []uint64, body []byte, key string) ([]uint64, error) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return dst, fmt.Errorf("response %q lacks %s", body, key)
	}
	var v uint64
	digits := false
	for _, b := range body[i+len(key):] {
		switch {
		case b >= '0' && b <= '9':
			v = v*10 + uint64(b-'0')
			digits = true
		case b == ',' || b == ']' || b == '}':
			if digits {
				dst = append(dst, v)
			}
			if b != ',' {
				return dst, nil
			}
			v, digits = 0, false
		case b != ' ' && b != '\n':
			return dst, fmt.Errorf("response %q: unexpected %q after %s", body, b, key)
		}
	}
	return dst, fmt.Errorf("response %q: unterminated %s", body, key)
}
