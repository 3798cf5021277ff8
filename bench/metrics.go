package main

import "slices"

// metricDef names one metric the benchmark prints. The root BENCHMARK.json
// lists the same names, units, directions and bounds; a test diff-checks the
// two, so a metric cannot be printed without being declared.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the baseline median; 0 = not gated
}

// endToEnd are the metrics every workload reports with tracing off and the
// driver gates. Every one of them is defined, and never zero, on all five
// workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ns_per_pkt_hop", "ns", "lower", 0.25},
	{"peak_rss_bytes", "B", "lower", 0.12},
}

// servedEndToEnd are end-to-end for a user of the served path but exist on
// serve_live only, and ops_failed_share is 0 at baseline; the driver's
// contract wants every gated metric on every workload and never zero, so
// BENCHMARK.json carries these three among the ungated metrics. `compare`
// still gates them with the bounds given here.
var servedEndToEnd = []metricDef{
	{"poll_p50_ms", "ms", "lower", 0.25},
	{"poll_p95_ms", "ms", "lower", 0.25},
	{"ops_failed_share", "ratio", "lower", 0},
}

// perLayer are the traced run's metrics: one process layer each, no bound.
// A metric a workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), servedEndToEnd...)
	lower := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, "lower", 0})
		}
	}
	higher := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, "higher", 0})
		}
	}
	for _, l := range layers {
		lower("ratio", l+".cpu_share")
	}
	lower("ratio", "other.cpu_share")

	lower("ms", "scenario.parse_ms", "scenario.compile_ms", "scenario.start_ms", "scenario.report_ms")
	lower("us", "scenario.inject_us_per_block")
	lower("count", "scenario.churn_arrivals")

	lower("count", "sim.events", "sim.pending_p50")
	higher("1/s", "sim.events_per_s")
	lower("ns", "sim.hold_ns", "sim.derive_rng_ns")
	higher("x", "sim.shard_speedup_x")
	lower("x", "sim.shard_event_imbalance")

	for _, k := range schedKinds {
		lower("ns", "sched.enqdeq_ns."+k)
	}
	lower("count", "sched.queue_len_p95")

	lower("count", "topology.pkt_hops", "topology.drops")
	lower("ns", "topology.port_hop_ns.unified", "topology.port_hop_ns.fifo")
	lower("ratio", "topology.cross_shard_pkt_share")

	lower("ns", "packet.pool_getput_ns", "queue.ring_pushpop_ns", "queue.deadline_pushpop_ns")
	higher("ratio", "packet.pool_reuse_ratio")

	lower("ns", "source.markov_ns_per_pkt", "source.poisson_ns_per_pkt")
	higher("count", "tcp.segments_delivered")

	lower("ns", "stats.recorder_add_ns")
	lower("ms", "stats.percentile_ms_per_msample")
	lower("ns", "tokenbucket.take_ns")

	lower("ns", "admission.admit_release_ns")
	lower("count", "admission.requested", "admission.rejected")
	higher("count", "admission.admitted")
	higher("ratio", "admission.accept_ratio")

	lower("ns", "core.request_release_ns", "core.member_admit_ns", "core.member_cycle_ns", "core.member_inject_ns")
	lower("B", "core.bytes_per_member")
	lower("count", "core.reroutes")
	lower("ms", "core.fail_link_ms")

	lower("us", "routing.shortest_path_us", "routing.lookup_route_miss_us")
	lower("ns", "routing.cache_hit_ns")
	higher("ratio", "routing.cache_hit_ratio")
	lower("count", "routing.cache_invalidations")

	for _, r := range serveRequests {
		lower("ms", "serve.req_p50_ms."+r)
	}
	lower("ms", "serve.poll_p99_ms", "serve.trace_tail_lag_ms")
	higher("count", "serve.trace_rows", "serve.trace_bytes")
	lower("x", "serve.overhead_x")

	lower("count", "runtime.allocs_per_kevent", "runtime.gc_cycles")
	lower("ratio", "runtime.gc_cpu_fraction")
	lower("B", "runtime.heap_inuse_peak_bytes")

	lower("ratio", "trace.overhead_share")
	return defs
}()

// schedKinds are the per-port pipelines the scheduler probe times.
var schedKinds = []string{"unified", "wfq", "fifoplus", "fifo", "virtualclock", "drr"}

// serveRequests are the request kinds of one served session, in order.
var serveRequests = []string{"create", "inject", "resume", "flows", "links", "status", "report", "delete"}

// isPerLayer reports whether the catalogue lists name as a per-layer metric.
func isPerLayer(name string) bool {
	return slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.Name == name })
}
