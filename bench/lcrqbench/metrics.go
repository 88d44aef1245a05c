package main

import (
	"slices"
)

// metric is one measured value with its unit and the number of samples it
// summarises.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// NotReportable marks a tail percentile with fewer than minBeyond
	// samples above it.
	NotReportable bool `json:"not_reportable,omitempty"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the queue sees, measured with tracing
// off. BENCHMARK.json declares the same set with their regression bounds.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"setup_s", "s"},
}

// reportOnly are end-to-end metrics that are printed and recorded but not
// gated: the tail percentiles swing too much between identical runs, and
// failed_frac and alloc_bytes_per_op are 0 on most workloads, so a
// relative bound means nothing for them.
var reportOnly = []metricDef{
	{"latency_p99_us", "us"},
	{"latency_p999_us", "us"},
	{"failed_frac", "ratio"},
	{"alloc_bytes_per_op", "B/op"},
}

// endToEndMetrics computes the end-to-end and report-only metrics of one
// untraced run.
func endToEndMetrics(o *outcome) map[string]metric {
	out := map[string]metric{}
	rates := windowRates(itemMarks(o.meters), float64(o.sched.window)/1e9)
	out["ops_per_s"] = metric{Value: median(rates), Unit: "1/s", Samples: len(rates)}

	var lat []uint32
	for _, m := range o.meters {
		lat = append(lat, m.lat.buf...)
	}
	slices.Sort(lat)
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_us", 0.5}, {"latency_p90_us", 0.9}, {"latency_p99_us", 0.99}, {"latency_p999_us", 0.999}} {
		v, ok := percentile(lat, p.q)
		out[p.name] = metric{Value: v / 1e3, Unit: "us", Samples: len(lat), NotReportable: !ok}
	}

	out["failed_frac"] = metric{Value: float64(o.failed) / float64(max(o.attempted, 1)), Unit: "ratio", Samples: int(o.attempted)}
	var items uint64
	for _, m := range o.meters {
		n, _ := m.measured()
		items += n
	}
	out["alloc_bytes_per_op"] = metric{Value: float64(o.allocBytes) / float64(max(items, 1)), Unit: "B/op", Samples: int(items)}
	out["setup_s"] = metric{Value: median(o.setups), Unit: "s", Samples: len(o.setups)}
	return out
}

// traceOverhead is the traced windows' median rate over the untraced
// windows' median rate, minus 1, for a run with alternating windows.
func traceOverhead(o *outcome) metric {
	rates := windowRates(itemMarks(o.meters), float64(o.sched.window)/1e9)
	untraced, traced := everyOther(rates, 0), everyOther(rates, 1)
	return metric{Value: median(traced)/median(untraced) - 1, Unit: "ratio", Samples: len(rates)}
}

// perLayer are the ledger's metrics, printed by a traced run. Each moves
// the end-to-end metric noted beside it, on the workload named there.
var perLayer = []metricDef{
	{"atomic128.cas2_ns", "ns"},           // ops_per_s @ pairs
	{"atomic128.cas2_contended_ns", "ns"}, // ops_per_s @ pairs
	{"core.ring.pair_ns", "ns"},           // ops_per_s, latency_p50_us @ pairs
	{"core.ring.scq_pair_ns", "ns"},       // none on amd64; the default ring elsewhere
	{"core.ring.faa_per_op", "count/op"},  // ops_per_s, latency_p90_us @ pairs (this group)
	{"core.ring.cas2_per_op", "count/op"},
	{"core.ring.cas2_fail_per_op", "count/op"},
	{"core.ring.cell_retries_per_op", "count/op"},
	{"core.ring.empty_trans_per_op", "count/op"},
	{"core.ring.spin_waits_per_op", "count/op"},
	{"core.ring.useful_frac", "ratio"},
	{"core.ring.empty_frac", "ratio"},
	{"core.list.pair_ns", "ns"}, // ops_per_s, alloc_bytes_per_op @ burst (this group)
	{"core.list.self_ns", "ns"},
	{"core.list.appends_per_mop", "count/Mop"},
	{"core.list.closes_per_mop", "count/Mop"},
	{"core.list.recycle_frac", "ratio"},
	{"core.list.live_rings_max", "count"},
	{"lcrq.handle.pair_ns", "ns"},          // ops_per_s @ pairs
	{"lcrq.handle.self_ns", "ns"},          // ops_per_s @ pairs
	{"lcrq.handle.features_self_ns", "ns"}, // ops_per_s @ typed-full
	{"lcrq.handle.enqueue_p99_us", "us"},   // latency_p90_us @ typed-full
	{"lcrq.handle.enqueue_p999_us", "us"},  // latency_p90_us @ typed-full
	{"lcrq.typed.pair_ns", "ns"},           // ops_per_s, alloc_bytes_per_op @ typed-full (this group)
	{"lcrq.typed.self_ns", "ns"},
	{"lcrq.typed.alloc_bytes_per_op", "B/op"},
	{"server.handler_p50_us", "us"}, // latency_p50_us, alloc_bytes_per_op @ service (this group)
	{"server.handler_p90_us", "us"},
	{"server.inproc_req_us", "us"},
	{"server.inproc_alloc_bytes_per_req", "B/req"},
	{"server.empty_poll_frac", "ratio"},
	{"client.rtt_p50_us", "us"}, // latency_p50_us, failed_frac @ service (this group)
	{"client.transport_self_us", "us"},
	{"client.retries_per_req", "count/req"},
	{"trace_overhead_frac", "ratio"}, // the traced pass's cost, per workload
}

// perLayerMetrics derives the ledger's metrics from its rows, plus the
// traced pass's overhead.
func perLayerMetrics(rows map[string]*rowSample, overhead metric) map[string]metric {
	out := map[string]metric{"trace_overhead_frac": overhead}
	put := func(name string, v float64, samples float64) {
		out[name] = metric{Value: v, Samples: int(samples)}
	}
	cas2, cas2c := rows["atomic128.cas2"], rows["atomic128.cas2_contended"]
	put("atomic128.cas2_ns", cas2.nsPerCall(), cas2.calls)
	put("atomic128.cas2_contended_ns", cas2c.nsPerCall(), cas2c.calls)

	ring, scq := rows["core.ring"], rows["core.ring.scq"]
	put("core.ring.pair_ns", ring.pairNs(), ring.calls/2)
	put("core.ring.scq_pair_ns", scq.pairNs(), scq.calls/2)
	// The ring layer counts its atomics but not its operations, so the
	// per-op base is the calls the workers made, over the same span
	// (warm-up included) as the counters.
	c := ring.c
	ops := float64(ring.attempted)
	put("core.ring.faa_per_op", ratio(float64(c.FAA), ops), ops)
	put("core.ring.cas2_per_op", ratio(float64(c.CAS2), ops), ops)
	put("core.ring.cas2_fail_per_op", ratio(float64(c.CAS2Fail), ops), ops)
	put("core.ring.cell_retries_per_op", ratio(float64(c.CellRetries), ops), ops)
	put("core.ring.empty_trans_per_op", ratio(float64(c.EmptyTrans), ops), ops)
	put("core.ring.spin_waits_per_op", ratio(float64(c.SpinWaits), ops), ops)
	put("core.ring.useful_frac", ratio(ops, float64(c.FAA)), float64(c.FAA))
	put("core.ring.empty_frac", ratio(ring.empties, ring.deqs), ring.deqs)

	list, burst := rows["core.list"], rows["core.list.burst"]
	put("core.list.pair_ns", list.pairNs(), list.calls/2)
	put("core.list.self_ns", list.pairNs()-ring.pairNs(), list.calls/2)
	b := burst.c
	bops := float64(b.Enqueues + b.Dequeues)
	put("core.list.appends_per_mop", ratio(float64(b.Appends)*1e6, bops), bops)
	put("core.list.closes_per_mop", ratio(float64(b.Closes)*1e6, bops), bops)
	put("core.list.recycle_frac", ratio(float64(b.Recycled), float64(b.Appends)), float64(b.Appends))
	put("core.list.live_rings_max", float64(burst.maxRings), bops)

	handle, full, typed := rows["lcrq.handle"], rows["lcrq.handle.full"], rows["lcrq.typed"]
	put("lcrq.handle.pair_ns", handle.pairNs(), handle.calls/2)
	put("lcrq.handle.self_ns", handle.pairNs()-list.pairNs(), handle.calls/2)
	put("lcrq.handle.features_self_ns", full.pairNs()-handle.pairNs(), full.calls/2)
	slices.Sort(full.lat)
	for _, p := range []struct {
		name string
		q    float64
	}{{"lcrq.handle.enqueue_p99_us", 0.99}, {"lcrq.handle.enqueue_p999_us", 0.999}} {
		v, ok := percentile(full.lat, p.q)
		out[p.name] = metric{Value: v / 1e3, Samples: len(full.lat), NotReportable: !ok}
	}
	put("lcrq.typed.pair_ns", typed.pairNs(), typed.calls/2)
	put("lcrq.typed.self_ns", typed.pairNs()-full.pairNs(), typed.calls/2)
	put("lcrq.typed.alloc_bytes_per_op", ratio(typed.allocBytes, typed.allocOps), typed.allocOps)

	inproc := rows["server.inproc"]
	slices.Sort(inproc.lat)
	req50, _ := percentile(inproc.lat, 0.5)
	put("server.inproc_req_us", req50/1e3, float64(len(inproc.lat)))
	put("server.inproc_alloc_bytes_per_req", ratio(inproc.allocBytes, inproc.allocOps), inproc.allocOps)

	var handler, rtt, self []int64
	var requests, retries, polls, empty float64
	for _, st := range rows["service"].svc {
		handler = append(handler, st.tr.handler...)
		rtt = append(rtt, st.tr.rtt...)
		self = append(self, st.tr.self...)
		requests += float64(st.requests)
		retries += float64(st.retries)
		polls += float64(st.polls)
		empty += float64(st.emptyPolls)
	}
	slices.Sort(handler)
	slices.Sort(rtt)
	slices.Sort(self)
	h50, _ := percentile(handler, 0.5)
	h90, ok90 := percentile(handler, 0.9)
	rtt50, _ := percentile(rtt, 0.5)
	self50, _ := percentile(self, 0.5)
	put("server.handler_p50_us", h50/1e3, float64(len(handler)))
	out["server.handler_p90_us"] = metric{Value: h90 / 1e3, Samples: len(handler), NotReportable: !ok90}
	put("server.empty_poll_frac", ratio(empty, polls), polls)
	put("client.rtt_p50_us", rtt50/1e3, float64(len(rtt)))
	put("client.transport_self_us", self50/1e3, float64(len(self)))
	put("client.retries_per_req", ratio(retries, requests), requests)

	for _, d := range perLayer {
		m := out[d.name]
		m.Unit = d.unit
		out[d.name] = m
	}
	return out
}
