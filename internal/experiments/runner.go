package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ispn/internal/core"
	"ispn/internal/scenario"
	"ispn/internal/stats"
	"ispn/internal/topology"
)

// RunConfig controls an experiment run.
type RunConfig struct {
	// Duration is simulated seconds (0 = PaperDuration).
	Duration float64
	// Seed drives every random stream of the run.
	Seed int64
}

// PaperDuration is the simulated seconds of every run in the paper.
const PaperDuration = 600

func (c *RunConfig) fill() {
	if c.Duration == 0 {
		c.Duration = PaperDuration
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

// discipline is one scheduling discipline of the scheduler studies: its name
// as the tables print it and the Link arguments that put it on a link. A
// reserving discipline isolates each flow at its own clock rate, so its
// world declares every flow Guaranteed and gives the flows the whole link
// (quota 0%).
type discipline struct {
	name       string
	link       string
	guaranteed bool
}

var (
	fifo     = discipline{name: "FIFO", link: "sched fifo"}
	fifoPlus = discipline{name: "FIFO+", link: "sched fifoplus"}
	wfq      = discipline{name: "WFQ", link: "sched wfq, quota 0%", guaranteed: true}
	vclock   = discipline{name: "VirtualClock", link: "sched virtualclock, quota 0%", guaranteed: true}
	drr      = discipline{name: "DRR", link: "sched drr"}
	// Delay-EDD's local budget is comparable to the observed FIFO tail;
	// Stop-and-Go's frame is 10 packet times.
	edd       = discipline{name: "Delay-EDD", link: "sched edd, targets [30ms]"}
	stopAndGo = discipline{name: "Stop-and-Go", link: "sched stopandgo, targets [10ms]"}
)

// world is one scheduler study's layout, generated as a .ispn cell: link i
// runs discs[i], and every flow carries the paper's Appendix workload, a
// two-state Markov source (mean burst burst[id] packets, MeanBurst when
// absent) policed to (A, 50) — by the network edge on a Predicted flow, by a
// TokenBucket at the host in front of a Guaranteed one. Flow <id> is named
// f<id> and its source m<id>, so its random stream is src:m<id>. A
// reserving discipline runs on every link of its world.
type world struct {
	nodes []string
	links [][2]string
	discs []discipline
	flows []FlowPath
	burst map[uint32]float64
}

// singleLink is the Table-1 layout: n identical flows over one link A -> B
// running d.
func singleLink(n int, d discipline) world {
	return world{nodes: []string{"A", "B"}, links: [][2]string{{"A", "B"}}, discs: []discipline{d}, flows: SingleLinkFlows(n)}
}

// figure1Chain is the Table-2 layout: the 22 flows over the Figure-1 chain,
// every link running d.
func figure1Chain(d discipline) world {
	links := Figure1Links()
	return world{nodes: Figure1Nodes(), links: links, discs: slices.Repeat([]discipline{d}, len(links)), flows: Figure1Flows()}
}

// source generates the world's scenario text.
func (w world) source(cfg RunConfig) string {
	var b strings.Builder
	header(&b, cfg, "", w.nodes)
	busiest := 0
	for i, lk := range w.links {
		fmt.Fprintf(&b, "%s -> %s :: Link(%s)\n", lk[0], lk[1], w.discs[i].link)
		busiest = max(busiest, len(FlowsOnLink(w.flows, lk[0], lk[1])))
	}
	// Equal shares as close to µ/n as a link admits: reservations must
	// stay below µ.
	share := math.Ceil(LinkRate/float64(busiest)) - 1
	for _, f := range w.flows {
		burst := MeanBurst
		if b, ok := w.burst[f.ID]; ok {
			burst = b
		}
		if w.discs[0].guaranteed {
			markovFlow(&b, f, burst, "Guaranteed", fmt.Sprintf("rate %.0fbps, bucket %gbit", share, BucketSize*PacketBits))
		} else {
			markovFlow(&b, f, burst, "Predicted", fmt.Sprintf("rate %.0fbps, bucket %gbit", AvgRate*PacketBits, BucketSize*PacketBits))
		}
	}
	return b.String()
}

// compile builds the world for cfg, ready to Run.
func (w world) compile(cfg RunConfig) *scenario.Sim {
	return compileCell("world.ispn", w.source(cfg))
}

// header writes a cell's Net, Run and Switch declarations; net holds the Net
// arguments after the rate.
func header(b *strings.Builder, cfg RunConfig, net string, nodes []string) {
	fmt.Fprintf(b, "net :: Net(rate %.0fbps%s)\nrun :: Run(seed %d, horizon %ss)\n%s :: Switch\n",
		LinkRate, net, cfg.Seed, secs(cfg.Duration), strings.Join(nodes, ", "))
}

// secs spells t seconds so the grammar reads back exactly t: plain decimals,
// since it reads no exponent (%g gives 1e+06).
func secs(t float64) string { return strconv.FormatFloat(t, 'f', -1, 64) }

// markovFlow writes flow f as f<id> :: kind(args, path …), fed by the
// Appendix workload: a two-state Markov source m<id> of mean burst burst,
// through the host (A, 50) filter tb<id> when the flow is Guaranteed (a
// Predicted flow is policed by the network edge).
func markovFlow(b *strings.Builder, f FlowPath, burst float64, kind, args string) {
	fmt.Fprintf(b, "m%d :: Markov(peak %gpps, avg %gpps, burst %g, size %dbit)\n", f.ID, PeakFactor*AvgRate, AvgRate, burst, PacketBits)
	fmt.Fprintf(b, "f%d :: %s(%s, path %s)\n", f.ID, kind, args, strings.Join(f.Path, " -> "))
	if kind == "Guaranteed" {
		fmt.Fprintf(b, "tb%d :: TokenBucket(rate %gpps, depth %g)\nm%d -> tb%d -> f%d\n", f.ID, AvgRate, BucketSize, f.ID, f.ID, f.ID)
	} else {
		fmt.Fprintf(b, "m%d -> f%d\n", f.ID, f.ID)
	}
}

// cellFlow returns flow id, declared f<id>, of a compiled cell.
func cellFlow(s *scenario.Sim, id uint32) *core.Flow {
	return s.FlowByName(fmt.Sprintf("f%d", id)).Flow
}

// port returns the output port of link from -> to in a compiled world.
func port(s *scenario.Sim, from, to string) *topology.Port {
	return s.Net.Topology().Node(from).Port(to)
}

// mergeRecorders unions the flows' sample sets, so the aggregate percentile
// is computed across flows.
func mergeRecorders(s *scenario.Sim, flows []FlowPath) DelayStats {
	merged := stats.NewRecorder()
	for _, f := range flows {
		merged.Absorb(cellFlow(s, f.ID).Meter())
	}
	return toDelayStats(merged)
}

// compileCell parses and compiles one generated .ispn cell — the one way
// every study builds its world, so each exercises the code path of `ispnsim
// run` on a library file.
func compileCell(name, src string) *scenario.Sim {
	f, err := scenario.Parse(name, []byte(src))
	if err != nil {
		panic(err) // a malformed template is a bug, not an input error
	}
	cell, err := scenario.Compile(f, scenario.Options{})
	if err != nil {
		panic(err)
	}
	return cell
}
