package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/scenario"
	"ispn/internal/sim"
)

const (
	// A repeat sets up untimed for setupWarmup — a fresh process pays page
	// faults and collector pacing on its first passes, three to four times
	// the steady cost — then takes setupSamples samples, each the mean of a
	// batch of fresh passes lasting at least setupBatch: a sub-millisecond
	// pass is dominated by where the collector happens to interrupt it, and
	// batches average that out. setup_s is the median of the samples.
	setupWarmup  = 200 * time.Millisecond
	setupSamples = 21
	setupBatch   = 10 * time.Millisecond
	// stepQuanta is how many equal StepTo steps carry a run to its horizon —
	// the serve actor's free-run quantum count, so batch and served runs
	// step alike. Stepped runs are bit-identical to one-shot runs.
	stepQuanta = 64
)

// timeSetup samples the set-up time: pass builds one fresh world; the last
// world built is the one the repeat then runs. drop, if not nil, tears the
// previous world down before the next pass, outside the timed region — a
// world the collector can simply forget needs none. The traced repeat sets up
// once — it never feeds an end-to-end number.
func timeSetup(tr *tracer, pass func() error, drop func()) ([]float64, error) {
	built := false
	timed := func() (time.Duration, error) {
		if built && drop != nil {
			drop()
		}
		built = true
		t0 := time.Now()
		err := pass()
		return time.Since(t0), err
	}
	if tr != nil {
		d, err := timed()
		return []float64{d.Seconds()}, err
	}
	for t0 := time.Now(); time.Since(t0) < setupWarmup; {
		if _, err := timed(); err != nil {
			return nil, err
		}
	}
	samples := make([]float64, 0, setupSamples)
	for len(samples) < setupSamples {
		var busy time.Duration
		passes := 0
		for passes == 0 || busy < setupBatch {
			d, err := timed()
			if err != nil {
				return nil, err
			}
			busy += d
			passes++
		}
		samples = append(samples, busy.Seconds()/float64(passes))
	}
	return samples, nil
}

// scenarioJob is one `.ispn` text to run from text to report bytes.
type scenarioJob struct {
	workload string
	text     string
	// instants are control-event times (link flaps) that get a step of
	// their own, so a span brackets exactly the events at that instant.
	instants []float64
	// check verifies workload-specific properties of the finished run.
	check func(s *scenario.Sim, rep *scenario.Report, c *checker)
}

// childResult is what one repeat — one child process — reports to the parent.
type childResult struct {
	SetupS    []float64          `json:"setup_s"` // one sample per fresh set-up pass
	WallS     float64            `json:"wall_s"`
	PktHops   int64              `json:"pkt_hops"`
	PeakRSS   int64              `json:"peak_rss_bytes"`
	ReportSHA string             `json:"report_sha"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	PollMS    []float64          `json:"poll_ms,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"` // traced repeats only
	Shape     probeShape         `json:"shape"`
}

// checker counts checked operations and keeps the first few failures.
type checker struct{ res *childResult }

func (c *checker) ok(cond bool, format string, args ...any) {
	c.res.Attempted++
	if !cond {
		c.fail(format, args...)
	}
}

func (c *checker) fail(format string, args ...any) {
	c.res.Failed++
	if len(c.res.Failures) < 8 {
		c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, args...))
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// build takes the text to a started world, with a span per stage.
func (j *scenarioJob) build(tr *tracer, parent int) (*scenario.Sim, error) {
	sp := tr.begin(parent, "parse")
	f, err := scenario.Parse(j.workload+".ispn", []byte(j.text))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: generated text does not parse: %w", j.workload, err)
	}
	sp = tr.begin(parent, "compile")
	s, err := scenario.Compile(f, scenario.Options{})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: generated text does not compile: %w", j.workload, err)
	}
	sp = tr.begin(parent, "start")
	s.Start()
	tr.end(sp)
	return s, nil
}

// stepPlan lists the StepTo targets of a run: stepQuanta equal quanta, plus
// for every control instant t the float just before it and t itself.
func stepPlan(horizon float64, instants []float64) (plan []float64, isInstant map[float64]bool) {
	isInstant = map[float64]bool{}
	for i := 1; i <= stepQuanta; i++ {
		plan = append(plan, horizon*float64(i)/stepQuanta)
	}
	for _, t := range instants {
		if t > 0 && t < horizon {
			plan = append(plan, math.Nextafter(t, 0), t)
			isInstant[t] = true
		}
	}
	slices.Sort(plan)
	return slices.Compact(plan), isInstant
}

// run executes one repeat: timed set-up passes, then the last world stepped
// to its horizon, finished and formatted. With a tracer it also brackets the
// run with a CPU profile, reads the public counters at every step boundary
// and fills res.Layer.
func (j *scenarioJob) run(tr *tracer) (*childResult, error) {
	res := &childResult{}
	var s *scenario.Sim
	root := tr.begin(0, "repeat")
	var err error
	res.SetupS, err = timeSetup(tr, func() (err error) {
		sp := tr.begin(root, "setup")
		s, err = j.build(tr, sp)
		tr.end(sp)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	var obs *observer
	if tr != nil {
		obs = newObserver(s.Net)
		if err := obs.startProfile(j.workload); err != nil {
			return nil, err
		}
	}
	plan, isInstant := stepPlan(s.Horizon, j.instants)
	runSpan := tr.begin(root, "run")
	t0 := time.Now()
	for _, t := range plan {
		name := "step"
		if isInstant[t] {
			name = "flap"
		}
		sp := tr.begin(runSpan, name)
		s.StepTo(t)
		tr.end(sp)
		obs.sample()
	}
	sp := tr.begin(runSpan, "finish")
	rep := s.Finish()
	tr.end(sp)
	sp = tr.begin(runSpan, "format")
	text := rep.Format()
	tr.end(sp)
	res.WallS = time.Since(t0).Seconds()
	tr.end(runSpan)
	if err := obs.stopProfile(); err != nil {
		return nil, err
	}
	tr.end(root)

	res.ReportSHA = sha([]byte(text))
	res.PktHops = pktHops(s.Net)
	if j.check != nil {
		j.check(s, rep, &checker{res: res})
	}
	if tr != nil {
		res.Layer = obs.layerMetrics(s, rep, tr.finish(), res)
		res.Shape = obs.shape()
	}
	return res, nil
}

// engines lists every event loop of a network: the control (or only) engine
// first, then one per shard.
func engines(net *core.Network) []*sim.Engine {
	out := []*sim.Engine{net.Engine()}
	for _, sh := range net.Topology().Shards() {
		out = append(out, sh.Engine())
	}
	return out
}

// pktHops is the work unit of ns_per_pkt_hop: packets transmitted, summed
// over every port.
func pktHops(net *core.Network) (hops int64) {
	for _, pt := range net.Topology().Ports() {
		hops += pt.TxPackets()
	}
	return hops
}

func pools(net *core.Network) []*packet.Pool {
	out := []*packet.Pool{net.Pool()}
	for _, sh := range net.Topology().Shards() {
		out = append(out, sh.Pool())
	}
	return out
}

// checkChain holds the paper's Table-3 claims the run must reproduce: every
// guaranteed flow's worst delay inside its Parekh–Gallager bound, no
// real-time packet lost to a full buffer, links saturated (the paper reports
// over 99 %; at this horizon some seeds land a few hundredths below, so the
// check asks for 98 %). The bound is the reported one plus one maximum packet
// time per hop — the non-preemption allowance the repo's own invariant
// oracle adds.
func checkChain(s *scenario.Sim, rep *scenario.Report, c *checker) {
	guaranteed := 0
	for _, f := range rep.Flows {
		if f.Service != "guaranteed" {
			continue
		}
		guaranteed++
		limit := f.BoundMS
		for _, pt := range s.Net.Topology().PathPorts(s.FlowByName(f.Name).Flow.Path()) {
			limit += 1e3 * float64(s.Net.Config().MaxPacketBits) / pt.Bandwidth()
		}
		c.ok(f.MaxMS <= limit, "chain_batch: guaranteed flow %s max delay %.3f ms exceeds its bound %.3f ms (%.3f ms reported + non-preemption)",
			f.Name, f.MaxMS, limit, f.BoundMS)
	}
	c.ok(guaranteed == 5, "chain_batch: report lists %d guaranteed flows, want 5", guaranteed)
	var rtDrops int64
	for _, pt := range s.Net.Topology().Ports() {
		rtDrops += pt.DropsByClass(packet.Guaranteed) + pt.DropsByClass(packet.Predicted)
	}
	c.ok(rtDrops == 0, "chain_batch: %d real-time packets dropped at full buffers", rtDrops)
	for _, l := range rep.Links {
		switch l.Name {
		case "S1->S2", "S2->S3", "S3->S4", "S4->S5":
			c.ok(l.Utilization > 0.98, "chain_batch: link %s is %.2f %% utilised, want > 98 %%", l.Name, 100*l.Utilization)
		}
	}
}

// checkChurn holds the control plane's own bookkeeping to account: every
// request was answered, and the route cache was consulted once per churn
// destination draw plus at most once per reroute attempt.
func checkChurn(s *scenario.Sim, rep *scenario.Report, c *checker) {
	if rep.Admission == nil || rep.RouteCache == nil || rep.Routing == nil {
		c.fail("churn_control: report lacks its admission, routing or route-cache section")
		return
	}
	a := rep.Admission
	c.ok(a.Admitted+a.Rejected == a.Requested, "churn_control: admitted %d + rejected %d != requested %d", a.Admitted, a.Rejected, a.Requested)
	var arrivals int64
	for _, ch := range rep.Churns {
		arrivals += ch.Arrivals
	}
	c.ok(arrivals == a.Requested, "churn_control: %d churn arrivals but %d admission requests", arrivals, a.Requested)
	lookups := rep.RouteCache.Hits + rep.RouteCache.Misses
	rerouteTries := rep.Routing.Reroutes + rep.Routing.Refusals
	c.ok(lookups >= arrivals && lookups <= arrivals+rerouteTries,
		"churn_control: %d cache lookups for %d destination draws and %d reroute attempts", lookups, arrivals, rerouteTries)
	c.ok(rep.Routing.Reroutes > 0, "churn_control: the link flaps rerouted nothing")
}

// memStats reads the runtime's memory statistics; that stops the world, so
// only the traced run calls it.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
