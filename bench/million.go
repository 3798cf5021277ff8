package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ispn"
)

// The million-member world: a 32-leaf star whose every ordered leaf pair and
// class is one aggregate (32·31·2 = 1984 carriers), a million members spread
// round-robin over them.
const (
	millionLeaves  = 32
	millionMembers = 1_000_000
	millionSimS    = 30.0      // simulated seconds of traffic
	millionPPS     = 50_000.0  // packets/second offered, summed over all drivers
	millionCycles  = 1_000_000 // release + re-admit at full occupancy
	millionPktBits = 1000
)

// memberSpec refills one packet's worth of tokens in 20 s — the interval at
// which an aggregate's driver comes round to the same member again — so a
// member's first packet conforms and about half the second ones are policed:
// both arms of the inline policer run.
var memberSpec = ispn.PredictedSpec{TokenRate: 50, BucketBits: millionPktBits, Delay: 0.5, Loss: 0.01}

// driver is the traffic of one aggregate: Poisson arrivals, each injected
// through the next member in turn, so consecutive packets touch policer
// slots a cache line apart at best.
type driver struct {
	eng      *ispn.Engine
	rng      *ispn.RNG
	members  []ispn.Member
	next     int
	meanGap  float64
	stopAt   float64
	injected int64
	// again is d.tick bound once: binding it at every ScheduleCall would
	// allocate a method value per packet and charge the run for it.
	again func(any)
}

func (d *driver) tick(any) {
	now := d.eng.Now()
	if now >= d.stopAt {
		return
	}
	m := d.members[d.next]
	d.next = (d.next + 1) % len(d.members)
	p := m.Flow().IngressPool().Get()
	p.Size = millionPktBits
	p.Seq = uint64(d.injected)
	p.CreatedAt = now
	m.Inject(p)
	d.injected++
	d.eng.ScheduleCall(d.rng.Exp(d.meanGap), d.again, nil)
}

// runMillion is one repeat of million_members through the facade API:
// build + 1 M admits (setup_s), 30 s of loaded simulation, 1 M member
// cycles. Its "report" is a text summary of every carrier's counters.
func runMillion(seed int64, _ string, tr *tracer) (*childResult, error) {
	res := &childResult{}
	c := &checker{res: res}
	var obs *observer
	var heap0 uint64
	if tr != nil {
		runtime.GC()
		heap0 = memStats().HeapAlloc
	}
	root := tr.begin(0, "repeat")

	setup := tr.begin(root, "setup")
	t0 := time.Now()
	// Admission control stays off, as in the repo's BenchmarkMillionFlows:
	// the §9 controller scans its warm-up ledger on every request, which is
	// quadratic when a million requests arrive at one simulated instant.
	net := ispn.New(ispn.Config{Seed: seed, LinkRate: 10e9})
	net.AddSwitch("hub")
	names := make([]string, millionLeaves)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
		net.AddSwitch(names[i])
		net.ConnectDuplex(names[i], "hub")
	}
	var paths [][]string
	for i := range names {
		for j := range names {
			if i != j {
				paths = append(paths, []string{names[i], "hub", names[j]})
			}
		}
	}
	admit := tr.begin(setup, "admit")
	handles := make([]ispn.Member, 0, millionMembers)
	refused := 0
	for i := 0; i < millionMembers; i++ {
		m, err := net.RequestPredictedMember(paths[i%len(paths)], uint8(i/len(paths)%2), memberSpec)
		if err != nil {
			refused++
			continue
		}
		handles = append(handles, m)
	}
	tr.end(admit)
	res.SetupS = []float64{time.Since(t0).Seconds()}
	tr.end(setup)
	// Every member request is an operation, and every refusal a failed one.
	res.Attempted += millionMembers
	if refused > 0 {
		res.Failed += int64(refused)
		res.Failures = append(res.Failures, fmt.Sprintf("million_members: %d of %d member requests refused", refused, millionMembers))
		return res, nil
	}
	carriers := len(net.Flows())
	c.ok(carriers < millionMembers/100, "million_members: %d carrier flows for %d members — aggregation failed", carriers, millionMembers)

	layer := map[string]float64{}
	if tr != nil {
		runtime.GC()
		layer["core.bytes_per_member"] = float64(memStats().HeapAlloc-heap0) / millionMembers
		layer["core.member_admit_ns"] = durMS(tr.spans, "admit") * 1e6 / millionMembers
		obs = newObserver(net)
		if err := obs.startProfile("million_members"); err != nil {
			return nil, err
		}
	}

	// One driver per aggregate, its members in admission order.
	aggs := net.Aggregates()
	byCarrier := make(map[*ispn.Flow]*driver, len(aggs))
	drivers := make([]*driver, len(aggs))
	for i, a := range aggs {
		f := a.Carrier()
		drivers[i] = &driver{
			eng: f.IngressEngine(), rng: ispn.DeriveRNG(seed, fmt.Sprintf("bench-driver-%d", i)),
			meanGap: float64(len(aggs)) / millionPPS, stopAt: millionSimS,
		}
		drivers[i].again = drivers[i].tick
		byCarrier[f] = drivers[i]
	}
	for _, m := range handles {
		d := byCarrier[m.Flow()]
		d.members = append(d.members, m)
	}

	runSpan := tr.begin(root, "run")
	t0 = time.Now()
	for _, d := range drivers {
		d.eng.ScheduleCall(d.rng.Exp(d.meanGap), d.again, nil)
	}
	traffic := tr.begin(runSpan, "traffic")
	for i := 1; i <= stepQuanta; i++ {
		sp := tr.begin(traffic, "step")
		net.Run(millionSimS / stepQuanta)
		tr.end(sp)
		obs.sample()
	}
	net.Run(0.01) // the drivers have stopped; let the last packets land
	tr.end(traffic)

	cycles := tr.begin(runSpan, "cycles")
	pick := ispn.DeriveRNG(seed, "bench-cycles")
	for i := 0; i < millionCycles; i++ {
		k := pick.Intn(len(handles))
		handles[k].Release()
		m, err := net.RequestPredictedMember(paths[k%len(paths)], uint8(k/len(paths)%2), memberSpec)
		if err != nil {
			refused++
			continue
		}
		handles[k] = m
	}
	tr.end(cycles)

	format := tr.begin(runSpan, "format")
	var b strings.Builder
	var injected, delivered, policed, dropped int64
	for i, a := range net.Aggregates() {
		f := a.Carrier()
		ps := f.PolicerStats()
		fmt.Fprintf(&b, "%d %s class %d members %d injected %d delivered %d policed %d\n",
			i, strings.Join(f.Path(), ">"), f.Priority, a.Members(), ps.Total, f.Delivered(), ps.Dropped)
		delivered += f.Delivered()
		policed += ps.Dropped
	}
	for _, d := range drivers {
		injected += d.injected
	}
	res.PktHops = pktHops(net)
	for _, pt := range net.Topology().Ports() {
		dropped += pt.Counter().Dropped
	}
	fmt.Fprintf(&b, "total injected %d delivered %d policed %d dropped %d hops %d\n", injected, delivered, policed, dropped, res.PktHops)
	tr.end(format)
	res.WallS = time.Since(t0).Seconds()
	tr.end(runSpan)
	if err := obs.stopProfile(); err != nil {
		return nil, err
	}
	tr.end(root)
	res.ReportSHA = sha([]byte(b.String()))

	res.Attempted += millionCycles
	if refused > 0 {
		res.Failed += int64(refused)
		res.Failures = append(res.Failures, fmt.Sprintf("million_members: %d of %d re-admissions refused at full occupancy", refused, millionCycles))
	}
	c.ok(delivered+policed+dropped == injected, "million_members: delivered %d + policed %d + dropped %d != injected %d", delivered, policed, dropped, injected)
	c.ok(dropped == 0, "million_members: %d packets dropped at 10 Gbps ports", dropped)
	c.ok(len(net.Aggregates()) == carriers, "million_members: carriers went from %d to %d across the cycles", carriers, len(net.Aggregates()))

	if tr != nil {
		spans := tr.finish()
		events := obs.networkMetrics(layer, durMS(spans, "traffic")/1e3)
		layer["core.member_cycle_ns"] = durMS(spans, "cycles") * 1e6 / millionCycles
		layer["core.member_inject_ns"] = durMS(spans, "traffic") * 1e6 / float64(injected)
		obs.runtimeMetrics(layer, events)
		if err := obs.cpuShareMetrics(layer); err != nil {
			c.fail("%v", err)
		}
		res.Layer = layer
		res.Shape = obs.shape()
	}
	runtime.KeepAlive(handles)
	return res, nil
}
