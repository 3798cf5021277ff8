package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"

	"ispn/internal/core"
	"ispn/internal/scenario"
)

// resultPath is the run's result file; span files and CPU profiles land
// beside it, in outDir. main sets both from -out.
var resultPath, outDir string

// observer is the traced run's view of the program from outside: a CPU
// profile around the run span, the public counters read at step boundaries,
// and the runtime's own statistics. Every method is a no-op on a nil
// observer, which is what the untraced run passes.
type observer struct {
	net *core.Network // nil when the world lives behind the HTTP server

	profPath string
	profFile *os.File

	ms0      runtime.MemStats
	heapPeak uint64
	pending  []float64 // Σ Engine.Pending() at each step boundary
	qlens    []float64 // every Port.QueueLen() at each step boundary
}

func newObserver(net *core.Network) *observer {
	return &observer{net: net, ms0: memStats()}
}

func (o *observer) startProfile(workload string) error {
	if o == nil {
		return nil
	}
	o.profPath = filepath.Join(outDir, "cpu-"+workload+".pprof")
	f, err := os.Create(o.profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	o.profFile = f
	return nil
}

func (o *observer) stopProfile() error {
	if o == nil || o.profFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := o.profFile.Close()
	o.profFile = nil
	return err
}

// sample reads the counters that only mean something mid-run.
func (o *observer) sample() {
	if o == nil {
		return
	}
	if inuse := memStats().HeapInuse; inuse > o.heapPeak {
		o.heapPeak = inuse
	}
	if o.net == nil {
		return
	}
	pending := 0
	for _, e := range engines(o.net) {
		pending += e.Pending()
	}
	o.pending = append(o.pending, float64(pending))
	for _, pt := range o.net.Topology().Ports() {
		o.qlens = append(o.qlens, float64(pt.QueueLen()))
	}
}

// cpuShareMetrics attributes the profile's samples to layers.
func (o *observer) cpuShareMetrics(m map[string]float64) error {
	gz, err := os.ReadFile(o.profPath)
	if err != nil {
		return err
	}
	shares, err := cpuShares(gz)
	if err != nil {
		return fmt.Errorf("%s: %w", o.profPath, err)
	}
	for layer, share := range shares {
		m[layer+".cpu_share"] = share
	}
	return nil
}

// runtimeMetrics reports what the run cost the Go runtime. events scales
// the allocation count; 0 leaves allocs_per_kevent at 0.
func (o *observer) runtimeMetrics(m map[string]float64, events float64) {
	ms := memStats()
	if ms.HeapInuse > o.heapPeak {
		o.heapPeak = ms.HeapInuse
	}
	if events > 0 {
		m["runtime.allocs_per_kevent"] = float64(ms.Mallocs-o.ms0.Mallocs) / events * 1000
	}
	m["runtime.gc_cycles"] = float64(ms.NumGC - o.ms0.NumGC)
	m["runtime.gc_cpu_fraction"] = ms.GCCPUFraction
	m["runtime.heap_inuse_peak_bytes"] = float64(o.heapPeak)
}

// networkMetrics reads the counters every core.Network world exposes.
func (o *observer) networkMetrics(m map[string]float64, runS float64) (events float64) {
	var perShard []float64
	for i, e := range engines(o.net) {
		events += float64(e.Processed())
		if i > 0 {
			perShard = append(perShard, float64(e.Processed()))
		}
	}
	m["sim.events"] = events
	m["sim.events_per_s"] = events / runS
	m["sim.pending_p50"] = median(o.pending)
	if len(perShard) > 0 {
		sum := 0.0
		for _, p := range perShard {
			sum += p
		}
		m["sim.shard_event_imbalance"] = slices.Max(perShard) * float64(len(perShard)) / sum
	}
	m["sched.queue_len_p95"] = percentileOr0(o.qlens, 0.95)

	var hops, remote, drops int64
	for _, pt := range o.net.Topology().Ports() {
		hops += pt.TxPackets()
		drops += pt.Counter().Dropped
		if pt.Remote() {
			remote += pt.TxPackets()
		}
	}
	m["topology.pkt_hops"] = float64(hops)
	m["topology.drops"] = float64(drops)
	if hops > 0 {
		m["topology.cross_shard_pkt_share"] = float64(remote) / float64(hops)
	}
	var gets, news int64
	for _, pl := range pools(o.net) {
		g, _, n := pl.Stats()
		gets += g
		news += n
	}
	if gets > 0 {
		m["packet.pool_reuse_ratio"] = 1 - float64(news)/float64(gets)
	}
	reroutes, _ := o.net.RerouteTotals()
	m["core.reroutes"] = float64(reroutes)
	if rc := o.net.RouteCache(); rc != nil {
		st := rc.Stats()
		m["routing.cache_hit_ratio"] = st.HitRate()
		m["routing.cache_invalidations"] = float64(st.Invalidations)
	}
	return events
}

// layerMetrics turns one traced scenario repeat into per-layer metrics.
func (o *observer) layerMetrics(s *scenario.Sim, rep *scenario.Report, spans []span, res *childResult) map[string]float64 {
	m := map[string]float64{}
	m["scenario.parse_ms"] = durMS(spans, "parse")
	m["scenario.compile_ms"] = durMS(spans, "compile")
	m["scenario.start_ms"] = durMS(spans, "start")
	m["scenario.report_ms"] = durMS(spans, "finish") + durMS(spans, "format")
	m["core.fail_link_ms"] = durMS(spans, "flap")
	for _, ch := range rep.Churns {
		m["scenario.churn_arrivals"] += float64(ch.Arrivals)
	}
	events := o.networkMetrics(m, res.WallS)
	for _, t := range s.TCPs {
		m["tcp.segments_delivered"] += float64(t.Conn.Delivered())
	}
	adm := s.Admission()
	m["admission.requested"] = float64(adm.Requested)
	m["admission.admitted"] = float64(adm.Admitted)
	m["admission.rejected"] = float64(adm.Rejected)
	if adm.Requested > 0 {
		m["admission.accept_ratio"] = float64(adm.Admitted) / float64(adm.Requested)
	}
	o.runtimeMetrics(m, events)
	if err := o.cpuShareMetrics(m); err != nil {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
	}
	return m
}

// probeShape carries what the traced repeat observed to the probes, so they
// time each layer at the occupancy the workload actually reached.
type probeShape struct {
	Pending    int `json:"pending"`     // median events pending across engines
	QueueDepth int `json:"queue_depth"` // p95 port queue length
	LiveFlows  int `json:"live_flows"`  // flows registered at the end of the run
}

func (o *observer) shape() probeShape {
	return probeShape{
		Pending:    int(median(o.pending)),
		QueueDepth: int(percentileOr0(o.qlens, 0.95)),
		LiveFlows:  len(o.net.Flows()),
	}
}
