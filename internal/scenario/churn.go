package scenario

import (
	"math"
	"sort"

	"ispn/internal/core"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/stats"
)

// churnRun is a compiled Churn element: a Poisson process of flow arrivals,
// each holding an exponentially distributed time before departing. Every
// arrival goes through admission control; rejected arrivals carry no
// traffic. All randomness comes from one stream derived from (seed,
// "churn:" + name), plus one derived stream per arrival k for its source,
// named "churn:" + name + ":" + k, so runs are bit-identical whatever the
// worker pool does.
//
// A call costs two allocations, its core.Flow and its churnCall, and a
// departed call keeps only its callMeter: the churn row's inputs.
type churnRun struct {
	name    string
	every   float64 // mean inter-arrival, seconds
	hold    float64 // mean holding time, seconds
	service string  // Predicted / Datagram
	p       core.PredictedSpec
	pps     float64
	size    int
	paths   [][]string

	// Destination-locality mode (from/to/locality instead of paths):
	// arrivals originate at from and pick a destination from dests with
	// Zipf-skewed probability P(k) ∝ 1/(k+1)^locality over the list in file
	// order; the route is resolved at arrival time through the network's
	// LookupRoute — the lookup stream a RouteCache element accelerates.
	from    string
	dests   []string
	destCDF []float64 // cumulative Zipf weights, len(dests)

	rng     *sim.RNG
	streams sim.Family // seeds each call's source stream from its arrival number

	arrivals, admitted, rejected, departed int64

	// The row's inputs: every admitted call's meter, in arrival order, in
	// blocks that never move (flows point into them), and the delays of
	// every delivered packet.
	meters [][]callMeter
	delays stats.Recorder

	live   []*churnCall // calls not yet departed, in no particular order (quiesce stops their sources)
	s      *Sim
	depart func(any) // departCall, bound once
}

// meterBlock is how many calls' meters one block holds.
const meterBlock = 512

// callMeter is what a call keeps once it has departed: its flow meters into
// it (core.Flow.MeterInto), so a packet in flight at departure still counts.
// The report folds the calls' delay sums in arrival order, as merging their
// recorders did; the samples go straight to the churn's one recorder, since
// the maximum and the percentiles do not depend on their order.
type callMeter struct {
	sum float64 // the call's queueing delays, summed in delivery order
	all *stats.Recorder
}

// Add implements core.DelayMeter.
func (m *callMeter) Add(q float64) {
	m.sum += q
	m.all.Add(q)
}

// churnCall is an admitted call until it departs: its flow, and its CBR
// source and the source's random stream held by value. After the departure
// nothing names it but its source's last pending tick, and nothing names its
// Flow but the packets still in flight.
type churnCall struct {
	flow *core.Flow
	live int // index in churnRun.live
	cbr  source.CBR
	rng  sim.RNG
}

// churnDecl compiles a Churn element.
func (c *compiler) churnDecl(d *Decl) {
	a := c.argsOf(d)
	ch := &churnRun{
		name:    d.Names[0].Text,
		every:   a.duration("every", 0),
		hold:    a.duration("hold", 0),
		service: a.enum("service", "predicted", "predicted", "datagram"),
		pps:     a.pktRate("pps", 0),
		size:    int(a.bits("size", DefaultPktBits)),
	}
	rate := a.bitrate("rate", 0)
	ch.p = core.PredictedSpec{
		TokenRate:  rate,
		BucketBits: a.bits("bucket", DefaultBucketPkt*DefaultPktBits),
		Delay:      a.duration("delay", 0.5),
		Loss:       0.01,
	}
	a.enum("src", "cbr", "cbr") // each call's source: the one process a workload writes
	pathLists := a.pathList("paths")
	from, fromGiven := a.identName("from")
	dests := a.nameList("to")
	locality := a.plain("locality", 1)
	localityPos, localityGiven := a.given("locality")
	a.finish()
	if ch.service == "predicted" {
		ch.service = "Predicted"
	} else {
		ch.service = "Datagram"
	}
	if ch.every <= 0 {
		c.failf(d.KindPos, "Churn requires a positive mean inter-arrival (every 2s)")
	}
	if ch.hold <= 0 {
		c.failf(d.KindPos, "Churn requires a positive mean holding time (hold 10s)")
	}
	if ch.service == "Predicted" && rate <= 0 {
		c.failf(d.KindPos, "Churn Predicted flows need a positive per-flow rate")
	}
	if ch.pps <= 0 {
		c.failf(d.KindPos, "Churn requires a positive per-flow packet rate (pps 64pps)")
	}
	if ch.size <= 0 {
		pos, _ := a.given("size")
		c.failf(pos, "Churn requires a positive packet size, got %d bits", ch.size)
	}
	// Two routing modes: explicit paths or destination locality
	// (from/to/locality), never both.
	destMode := fromGiven || dests != nil || localityGiven
	if destMode && len(pathLists) > 0 {
		c.failf(d.KindPos, "Churn takes either explicit paths or destination locality (from/to), not both")
	}
	if destMode {
		if !fromGiven || len(dests) == 0 {
			c.failf(d.KindPos, "Churn destination locality needs both from (a switch) and to (a list of switches)")
		}
		if locality < 0 {
			c.failf(localityPos, "Churn locality must be non-negative, got %v", locality)
		}
		if !c.switches[from.Text] {
			c.what(from, "a switch", "in a Churn from")
		}
		ch.from = from.Text
		for _, n := range dests {
			if !c.switches[n.Text] {
				c.what(n, "a switch", "in a Churn to")
			}
			if n.Text == from.Text {
				c.failf(n.Pos, "Churn destination %q is the origin itself", n.Text)
			}
			ch.dests = append(ch.dests, n.Text)
		}
		// Zipf over list order: the k-th destination gets weight
		// 1/(k+1)^locality (locality 0 = uniform). The CDF is fixed at
		// compile so every arrival pays one uniform draw and a search.
		sum := 0.0
		for k := range ch.dests {
			sum += math.Pow(float64(k+1), -locality)
			ch.destCDF = append(ch.destCDF, sum)
		}
		c.out.churns = append(c.out.churns, ch)
		return
	}
	if len(pathLists) == 0 {
		c.failf(d.KindPos, "Churn needs a path pool (paths [A -> B, A -> C]) or destination locality (from A, to [B, C])")
	}
	for _, p := range pathLists {
		ch.paths = append(ch.paths, c.pathNodes(p))
	}
	c.out.churns = append(c.out.churns, ch)
}

// schedule arms the arrival process on the engine.
func (ch *churnRun) schedule(s *Sim) {
	ch.rng = sim.DeriveRNG(s.Seed, "churn:"+ch.name)
	ch.streams = churnStreams(s.Seed, ch.name)
	ch.s, ch.depart = s, ch.departCall
	// Arrivals are control events: admission, source attachment and
	// departure scheduling run before the data events of their instant.
	eng := s.Net.Engine()
	var arrive func()
	arrive = func() {
		if eng.Now() > s.Horizon || s.draining {
			return
		}
		ch.doArrival(s)
		eng.AtControl(eng.Now()+ch.rng.Exp(ch.every), arrive)
	}
	eng.AtControl(ch.rng.Exp(ch.every), arrive)
}

// churnStreams derives the churn's per-call source streams: call k's is the
// stream named "churn:" + name + ":" + k.
func churnStreams(seed int64, name string) sim.Family {
	return sim.NewFamily(seed, "churn:"+name+":")
}

// doArrival admits (or not) one churn flow, attaches its source, and
// schedules its departure. The per-arrival draws (path, hold) happen
// unconditionally, so the stream position is independent of admission
// outcomes.
func (ch *churnRun) doArrival(s *Sim) {
	eng := s.Net.Engine()
	now := eng.Now()
	ch.arrivals++
	var path []string
	if ch.dests != nil {
		// Destination mode: draw the (Zipf-skewed) destination, then let
		// the network resolve the route — through the route cache when one
		// is installed. An unroutable destination flows into issueRequest
		// as an invalid path and is counted as a rejection, like any other
		// refused arrival.
		path = s.Net.LookupRoute(ch.from, ch.dests[ch.drawDest()])
	} else {
		path = ch.paths[0]
		if len(ch.paths) > 1 {
			path = ch.paths[ch.rng.Intn(len(ch.paths))]
		}
	}
	holdFor := ch.rng.Exp(ch.hold)
	id := s.allocID()
	f, err := s.issueRequest(&flowReq{kind: ch.service, id: id, nodes: path, p: ch.p, class: -1})
	if err != nil {
		ch.rejected++
		return
	}
	ch.admitted++
	f.MeterInto(ch.newMeter())

	call := &churnCall{flow: f, live: len(ch.live)}
	ch.live = append(ch.live, call)
	call.rng.Init(ch.streams.SeedOf(ch.arrivals))
	call.cbr.Init(source.CBRConfig{SizeBits: ch.size, Rate: ch.pps, RNG: &call.rng})
	call.cbr.SetPool(f.IngressPool())
	call.cbr.StartTo(eng, f)
	eng.AtCallKeyed(now+holdFor, sim.KeyControl, ch.depart, call)
}

// departCall is a call's departure: its source stops, the network releases
// it, and it leaves the live set.
func (ch *churnRun) departCall(arg any) {
	call := arg.(*churnCall)
	call.cbr.Stop()
	last := ch.live[len(ch.live)-1]
	ch.live[call.live], last.live = last, call.live
	ch.live[len(ch.live)-1] = nil
	ch.live = ch.live[:len(ch.live)-1]
	ch.s.Net.Release(call.flow.ID)
	ch.departed++
	if ch.service != "Datagram" {
		ch.s.noteDeparture(ch.s.Net.Engine().Now())
	}
}

// report is the churn's row: what merging every admitted call's delay
// recorder in arrival order gives — the calls' sums folded in that order, the
// maximum and percentiles of all their samples, and as many deliveries as
// samples.
func (ch *churnRun) report(pcts []float64) ChurnReport {
	sum := 0.0
	for _, b := range ch.meters {
		for i := range b {
			sum += b[i].sum
		}
	}
	mean, n := 0.0, ch.delays.Count()
	if n > 0 {
		mean = sum / float64(n)
	}
	cr := ChurnReport{
		Name:      ch.name,
		Arrivals:  ch.arrivals,
		Admitted:  ch.admitted,
		Rejected:  ch.rejected,
		Departed:  ch.departed,
		Delivered: int64(n),
		MeanMS:    mean * 1e3,
		MaxMS:     ch.delays.Max() * 1e3,
	}
	for _, p := range pcts {
		cr.PctMS = append(cr.PctMS, ch.delays.Percentile(p)*1e3)
	}
	return cr
}

// newMeter returns the next admitted call's meter.
func (ch *churnRun) newMeter() *callMeter {
	if k := len(ch.meters); k == 0 || len(ch.meters[k-1]) == meterBlock {
		ch.meters = append(ch.meters, make([]callMeter, 0, meterBlock))
	}
	b := &ch.meters[len(ch.meters)-1]
	*b = append(*b, callMeter{all: &ch.delays})
	return &(*b)[len(*b)-1]
}

// drawDest picks a destination index with probability proportional to its
// compile-time Zipf weight. One uniform draw per arrival, whatever the
// outcome, so the churn's random stream position never depends on admission
// or routing results.
func (ch *churnRun) drawDest() int {
	u := ch.rng.Float64() * ch.destCDF[len(ch.destCDF)-1]
	i := sort.SearchFloat64s(ch.destCDF, u)
	if i >= len(ch.dests) {
		i = len(ch.dests) - 1
	}
	return i
}
