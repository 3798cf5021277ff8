package experiments

import (
	"fmt"

	"ispn/internal/packet"
	"ispn/internal/scenario"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/stats"
	"ispn/internal/topology"
)

// Discipline selects the per-link scheduler for the plain (non-unified)
// experiments of Tables 1 and 2 and the ablations.
type Discipline string

// The disciplines compared in the paper and ablations.
const (
	DiscFIFO     Discipline = "FIFO"
	DiscWFQ      Discipline = "WFQ"
	DiscFIFOPlus Discipline = "FIFO+"
	DiscRR       Discipline = "RR"
	DiscVC       Discipline = "VirtualClock"
)

// RunConfig controls an experiment run.
type RunConfig struct {
	// Duration is simulated seconds (paper: 600).
	Duration float64
	// Seed drives every random stream of the run.
	Seed int64
	// Shards partitions each scenario-based simulation across that many
	// event heaps advanced in lockstep windows (0 = one heap). Reports are
	// bit-identical either way; raw-topology experiments whose links all
	// have zero propagation delay (the Figure-1 chain) have no shard
	// boundary to cut and ignore it.
	Shards int
}

func (c *RunConfig) fill() {
	if c.Duration == 0 {
		c.Duration = 600
	}
}

// DelayStats summarizes one flow's end-to-end queueing delays in packet
// transmission times (ms).
type DelayStats struct {
	Mean float64
	P999 float64
	Max  float64
	N    int
}

func toDelayStats(r *stats.Recorder) DelayStats {
	return DelayStats{
		Mean: r.Mean() * UnitMS,
		P999: r.Percentile(0.999) * UnitMS,
		Max:  r.Max() * UnitMS,
		N:    r.Count(),
	}
}

// rawWorld is the one way the scheduler-level studies (Tables 1-2, the
// ablations on sharing, compare, sweep, dist, mixed) build a world: bare
// topology ports with a chosen scheduler per link, and on every flow the
// paper's Appendix workload — a two-state Markov source policed by an
// (A, 50) token bucket at the host. These stay off the scenario compiler
// because equal-share WFQ over a full link and Stop-and-Go have no .ispn
// spelling, and the compiler's RNG stream names would change every
// published number.
type rawWorld struct {
	nodes []string
	links [][2]string
	flows []FlowPath
	// stream prefixes the sources' RNG stream names ("<stream>-<flow id>").
	stream string
	sched  linkScheduler
	// burst overrides a flow's mean burst size (nil = MeanBurst for all).
	burst func(id uint32) float64
	// port, when set, sees every port right after it is built.
	port func(*topology.Port)
	// deliver, when set, receives every delivered packet's queueing delay
	// in place of the per-flow recorders.
	deliver func(id uint32, q float64)
}

// linkScheduler builds the scheduler of link from->to, given the flows that
// cross it.
type linkScheduler func(from, to string, flowsHere []FlowPath) sched.Scheduler

// uniform puts discipline d on every link.
func uniform(d Discipline) linkScheduler {
	return func(_, _ string, flowsHere []FlowPath) sched.Scheduler { return newScheduler(d, flowsHere) }
}

// singleLink is the Table-1 layout: n identical flows over one link A -> B.
func singleLink(n int, stream string, mk linkScheduler) rawWorld {
	return rawWorld{
		nodes: []string{"A", "B"}, links: [][2]string{{"A", "B"}}, flows: SingleLinkFlows(n),
		stream: stream, sched: mk,
	}
}

// figure1Chain is the Table-2 layout: the 22 flows over the Figure-1 chain.
func figure1Chain(stream string, mk linkScheduler) rawWorld {
	return rawWorld{
		nodes: Figure1Nodes(), links: Figure1Links(), flows: Figure1Flows(),
		stream: stream, sched: mk,
	}
}

// plainRun is a finished rawWorld simulation: the topology (for port
// counters) and, unless the world had its own deliver hook, each flow's
// queueing-delay recorder.
type plainRun struct {
	topo *topology.Network
	rec  map[uint32]*stats.Recorder
}

// newScheduler builds a scheduler of the given discipline for one link.
// WFQ uses equal clock rates across the link's flows, as the paper does in
// Tables 1 and 2.
func newScheduler(d Discipline, flowsHere []FlowPath) sched.Scheduler {
	switch d {
	case DiscFIFO:
		return sched.NewFIFO()
	case DiscFIFOPlus:
		return sched.NewFIFOPlus(0)
	case DiscRR:
		return sched.NewDRR(PacketBits)
	case DiscWFQ:
		w := sched.NewWFQ(LinkRate)
		share := LinkRate / float64(len(flowsHere))
		for _, f := range flowsHere {
			w.AddFlow(f.ID, share)
		}
		return w
	case DiscVC:
		v := sched.NewVirtualClock()
		share := LinkRate / float64(len(flowsHere))
		for _, f := range flowsHere {
			v.AddFlow(f.ID, share)
		}
		return v
	default:
		panic(fmt.Sprintf("experiments: unknown discipline %q", d))
	}
}

// run simulates the world for cfg.Duration.
func (w rawWorld) run(cfg RunConfig) *plainRun {
	cfg.fill()
	eng := sim.New()
	topo := topology.NewNetwork(eng)
	for _, n := range w.nodes {
		topo.AddNode(n)
	}
	for _, lk := range w.links {
		p := topo.AddLink(lk[0], lk[1], w.sched(lk[0], lk[1], FlowsOnLink(w.flows, lk[0], lk[1])), LinkRate, 0)
		if w.port != nil {
			w.port(p)
		}
	}
	run := &plainRun{topo: topo, rec: make(map[uint32]*stats.Recorder)}
	for _, f := range w.flows {
		id := f.ID
		topo.InstallRoute(id, f.Path)
		deliver := w.deliver
		if deliver == nil {
			rec := stats.NewRecorder()
			run.rec[id] = rec
			deliver = func(_ uint32, q float64) { rec.Add(q) }
		}
		fixed := topo.FixedDelay(f.Path, PacketBits)
		topo.Node(f.Path[len(f.Path)-1]).SetSink(id, func(p *packet.Packet) {
			q := eng.Now() - p.CreatedAt - fixed
			if q < 0 {
				q = 0
			}
			deliver(id, q)
		})
		burst := MeanBurst
		if w.burst != nil {
			burst = w.burst(id)
		}
		src := source.NewPoliced(source.NewMarkov(source.MarkovConfig{
			FlowID:   id,
			Class:    packet.Predicted,
			SizeBits: PacketBits,
			PeakRate: PeakFactor * AvgRate,
			AvgRate:  AvgRate,
			Burst:    burst,
			RNG:      sim.DeriveRNG(cfg.Seed, fmt.Sprintf("%s-%d", w.stream, id)),
		}), AvgRate, BucketSize)
		source.AttachPool(src, topo.Pool())
		ingress := topo.Node(f.Path[0])
		src.Start(eng, func(p *packet.Packet) { ingress.Inject(p) })
	}
	eng.RunUntil(cfg.Duration)
	return run
}

// mergeRecorders unions the flows' sample sets, so the aggregate percentile
// is computed across flows.
func mergeRecorders(run *plainRun, flows []FlowPath) DelayStats {
	merged := stats.NewRecorder()
	for _, f := range flows {
		merged.Absorb(run.rec[f.ID])
	}
	return toDelayStats(merged)
}

// utilization returns the lifetime utilization of link from->to.
func (r *plainRun) utilization(from, to string, dur float64) float64 {
	return r.topo.Node(from).Port(to).TotalUtilization(dur)
}

// runCell parses, compiles and runs one generated .ispn cell — the one way
// the control-plane studies (churn, failover, cache) build a world, so each
// exercises the same code path as `ispnsim run` on a library file.
func runCell(name, src string, shards int) *scenario.Report {
	f, err := scenario.Parse(name, []byte(src))
	if err != nil {
		panic(err) // a malformed template is a bug, not an input error
	}
	cell, err := scenario.Compile(f, scenario.Options{Shards: shards})
	if err != nil {
		panic(err)
	}
	return cell.Run()
}
