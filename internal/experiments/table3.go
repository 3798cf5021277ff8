package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/source"
	"ispn/internal/stats"
	"ispn/internal/tcp"
)

// ServiceKind labels the four real-time service assignments of Table 3.
type ServiceKind string

// The Table 3 service assignments.
const (
	GuaranteedPeak ServiceKind = "Guaranteed-Peak" // clock rate = peak generation rate
	GuaranteedAvg  ServiceKind = "Guaranteed-Avg"  // clock rate = average generation rate
	PredictedHigh  ServiceKind = "Predicted-High"  // priority class 0
	PredictedLow   ServiceKind = "Predicted-Low"   // priority class 1
)

// Table3Assignment maps each Figure-1 flow to its Table 3 service kind.
// The layout satisfies the paper's per-link census exactly: every
// inter-switch link carries 2 Guaranteed-Peak, 1 Guaranteed-Average,
// 3 Predicted-High and 4 Predicted-Low flows (plus one TCP connection).
func Table3Assignment() map[uint32]ServiceKind {
	return map[uint32]ServiceKind{
		F401: GuaranteedPeak, F201: GuaranteedPeak, F203: GuaranteedPeak,
		F301: GuaranteedAvg, F109: GuaranteedAvg,
		F402: PredictedHigh, F202: PredictedHigh, F204: PredictedHigh,
		F101: PredictedHigh, F105: PredictedHigh, F107: PredictedHigh, F110: PredictedHigh,
		F302: PredictedLow, F303: PredictedLow, F304: PredictedLow,
		F102: PredictedLow, F103: PredictedLow, F104: PredictedLow,
		F106: PredictedLow, F108: PredictedLow, F111: PredictedLow, F112: PredictedLow,
	}
}

// Table3SampleFlows returns the rows the paper prints: for each service
// kind, a pair of sample flows at two path lengths.
func Table3SampleFlows() []uint32 {
	return []uint32{F401, F201, F301, F109, F402, F202, F302, F102}
}

// Table3Row is one sample flow's measured delays (packet transmission
// times) plus, for guaranteed flows, the Parekh-Gallager bound.
type Table3Row struct {
	Kind    ServiceKind
	FlowID  uint32
	PathLen int
	Stats   DelayStats
	// PGBound is the bound as the paper prints it (b/r + (K−1)L/r);
	// PGBoundFull adds Parekh's per-hop non-preemption term K·L/µ.
	// Both are in ms and 0 for predicted rows.
	PGBound     float64
	PGBoundFull float64
}

// Table3Result is the full Table 3 reproduction.
type Table3Result struct {
	Rows []Table3Row
	// ByKind aggregates the delays of every flow of each kind.
	ByKind map[ServiceKind]DelayStats
	// DatagramDropRate is buffer drops / segments entering the network
	// for the two TCP connections.
	DatagramDropRate float64
	// RealTimeDropped counts real-time packets lost to buffer overflow
	// (the paper's configuration loses none).
	RealTimeDropped int64
	// LinkUtil is per-link total utilization over the run, in Figure-1
	// link order; RealTimeUtil is the utilization due to real-time
	// traffic only.
	LinkUtil     [4]float64
	RealTimeUtil [4]float64
	// TCPGoodputBits is each connection's delivered rate.
	TCPGoodputBits [2]float64
}

// Table3 reproduces the paper's Table 3: the Figure-1 network under the
// unified scheduler with 5 guaranteed flows (3 at peak clock rate, 2 at
// average), 17 predicted flows (7 high-priority, 10 low), and two datagram
// TCP connections filling the leftovers. The paper's claims: every
// guaranteed flow's worst-case delay sits well inside its Parekh-Gallager
// bound; Peak flows see far lower delays than Average flows; Predicted-High
// sees lower delays than Predicted-Low; links run above 99% utilization with
// ~83.5% of it real-time; and the datagram traffic suffers only ~0.1% drops.
func Table3(cfg RunConfig) Table3Result {
	cfg.fill()
	peakRate := PeakFactor * AvgRate * PacketBits // 170 kbit/s
	avgRate := AvgRate * PacketBits               // 85 kbit/s

	n := core.New(core.Config{
		LinkRate:         LinkRate,
		PredictedClasses: 2,
		MaxPacketBits:    PacketBits,
		Seed:             cfg.Seed,
	})
	for _, name := range Figure1Nodes() {
		n.AddSwitch(name)
	}
	for _, lk := range Figure1Links() {
		n.Connect(lk[0], lk[1])
		n.Connect(lk[1], lk[0]) // reverse direction carries TCP ACKs
	}

	// Per-link real-time bit accounting via the transmit hook.
	var rtBits [4]float64
	for i, lk := range Figure1Links() {
		i := i
		port := n.Topology().Node(lk[0]).Port(lk[1])
		port.OnTransmit = func(p *packet.Packet, now float64) {
			if p.Class != packet.Datagram {
				rtBits[i] += float64(p.Size)
			}
		}
	}

	assignment := Table3Assignment()
	flows := make(map[uint32]*core.Flow)
	for _, fp := range Figure1Flows() {
		kind := assignment[fp.ID]
		var fl *core.Flow
		var err error
		switch kind {
		case GuaranteedPeak:
			fl, err = n.RequestGuaranteed(fp.ID, fp.Path, core.GuaranteedSpec{
				ClockRate:  peakRate,
				BucketBits: PacketBits, // b(P) = one packet for an on/off source at peak P
			})
		case GuaranteedAvg:
			fl, err = n.RequestGuaranteed(fp.ID, fp.Path, core.GuaranteedSpec{
				ClockRate:  avgRate,
				BucketBits: BucketSize * PacketBits, // the (A, 50) filter
			})
		case PredictedHigh, PredictedLow:
			class := uint8(0)
			if kind == PredictedLow {
				class = 1
			}
			fl, err = n.RequestPredictedClass(fp.ID, fp.Path, class, core.PredictedSpec{
				TokenRate:  avgRate,
				BucketBits: BucketSize * PacketBits,
				Delay:      1,
				Loss:       0.01,
			})
		default:
			panic(fmt.Sprintf("experiments: flow %d missing from Table 3 assignment", fp.ID))
		}
		if err != nil {
			panic(fmt.Sprintf("experiments: admitting flow %d: %v", fp.ID, err))
		}
		flows[fp.ID] = fl

		src := source.NewMarkov(source.MarkovConfig{
			FlowID:   fp.ID,
			SizeBits: PacketBits,
			PeakRate: PeakFactor * AvgRate,
			AvgRate:  AvgRate,
			Burst:    MeanBurst,
			RNG:      n.RNG(fmt.Sprintf("markov-%d", fp.ID)),
		})
		source.AttachPool(src, n.Pool())
		inject := func(p *packet.Packet) { fl.Inject(p) }
		if kind == GuaranteedPeak || kind == GuaranteedAvg {
			// Guaranteed flows make no traffic commitment to the
			// network; the paper still polices every source with
			// the (A, 50) filter at the host.
			pol := source.NewPoliced(src, AvgRate, BucketSize)
			pol.Start(n.Engine(), inject)
		} else {
			// Predicted flows are policed by the network edge
			// (fl.Inject enforces the declared token bucket).
			src.Start(n.Engine(), inject)
		}
	}

	// Two greedy TCP connections, one per pair of links.
	tcp1 := tcp.NewConnection(n.Topology(), tcp.Config{
		DataFlowID: 900, AckFlowID: 901,
		Path:        []string{"S1", "S2", "S3"},
		ReversePath: []string{"S3", "S2", "S1"},
		SegmentBits: PacketBits,
	})
	tcp2 := tcp.NewConnection(n.Topology(), tcp.Config{
		DataFlowID: 902, AckFlowID: 903,
		Path:        []string{"S3", "S4", "S5"},
		ReversePath: []string{"S5", "S4", "S3"},
		SegmentBits: PacketBits,
	})
	tcp1.Start()
	tcp2.Start()

	n.Run(cfg.Duration)

	res := Table3Result{ByKind: make(map[ServiceKind]DelayStats)}
	for _, id := range Table3SampleFlows() {
		fl := flows[id]
		row := Table3Row{
			Kind:    assignment[id],
			FlowID:  id,
			PathLen: fl.Hops(),
			Stats:   toDelayStats(fl.Meter()),
		}
		switch assignment[id] {
		case GuaranteedPeak:
			row.PGBound = fl.Bound() * UnitMS
			row.PGBoundFull = core.PGBoundPacketized(PacketBits, peakRate, fl.Hops(), PacketBits, LinkRate) * UnitMS
		case GuaranteedAvg:
			row.PGBound = fl.Bound() * UnitMS
			row.PGBoundFull = core.PGBoundPacketized(BucketSize*PacketBits, avgRate, fl.Hops(), PacketBits, LinkRate) * UnitMS
		}
		res.Rows = append(res.Rows, row)
	}
	// Absorb adds float sums, so the merge order is fixed: ascending flow id.
	ids := slices.Sorted(maps.Keys(assignment))
	for _, kind := range []ServiceKind{GuaranteedPeak, GuaranteedAvg, PredictedHigh, PredictedLow} {
		merged := stats.NewRecorder()
		for _, id := range ids {
			if assignment[id] == kind {
				merged.Absorb(flows[id].Meter())
			}
		}
		res.ByKind[kind] = toDelayStats(merged)
	}

	var tcpDrops, tcpSent int64
	for i, lk := range Figure1Links() {
		port := n.Topology().Node(lk[0]).Port(lk[1])
		res.LinkUtil[i] = port.TotalUtilization(cfg.Duration)
		res.RealTimeUtil[i] = rtBits[i] / (LinkRate * cfg.Duration)
		tcpDrops += port.DropsByClass(packet.Datagram)
		res.RealTimeDropped += port.DropsByClass(packet.Guaranteed) + port.DropsByClass(packet.Predicted)
	}
	tcpSent = tcp1.Stats().SegmentsSent + tcp2.Stats().SegmentsSent
	if tcpSent > 0 {
		res.DatagramDropRate = float64(tcpDrops) / float64(tcpSent)
	}
	res.TCPGoodputBits[0] = tcp1.ThroughputBits(cfg.Duration)
	res.TCPGoodputBits[1] = tcp2.ThroughputBits(cfg.Duration)
	return res
}

// FormatTable3 renders the result like the paper's Table 3.
func FormatTable3(r Table3Result) string {
	var b strings.Builder
	b.WriteString("Table 3: unified scheduling algorithm on the Figure-1 network\n")
	fmt.Fprintf(&b, "%-16s %5s %8s %10s %8s %10s\n", "type", "path", "mean", "99.9 %ile", "max", "P-G bound")
	for _, row := range r.Rows {
		if row.PGBound > 0 {
			fmt.Fprintf(&b, "%-16s %5d %8.2f %10.2f %8.2f %10.2f\n",
				row.Kind, row.PathLen, row.Stats.Mean, row.Stats.P999, row.Stats.Max, row.PGBound)
		} else {
			fmt.Fprintf(&b, "%-16s %5d %8.2f %10.2f %8.2f %10s\n",
				row.Kind, row.PathLen, row.Stats.Mean, row.Stats.P999, row.Stats.Max, "-")
		}
	}
	fmt.Fprintf(&b, "datagram drop rate: %.3f%%   real-time drops: %d\n",
		100*r.DatagramDropRate, r.RealTimeDropped)
	for i := range r.LinkUtil {
		fmt.Fprintf(&b, "link L%d: utilization %5.1f%% (real-time %5.1f%%)\n",
			i+1, 100*r.LinkUtil[i], 100*r.RealTimeUtil[i])
	}
	fmt.Fprintf(&b, "TCP goodput: %.0f and %.0f bits/s\n", r.TCPGoodputBits[0], r.TCPGoodputBits[1])
	return b.String()
}
