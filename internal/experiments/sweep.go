package experiments

import (
	"fmt"
	"strings"

	"ispn/internal/packet"
	"ispn/internal/stats"
)

// SweepPoint is one offered-load level of the utilization sweep.
type SweepPoint struct {
	Flows       int
	Utilization float64
	P999        map[string]float64 // aggregate 99.9%ile per discipline name, ms
	Mean        map[string]float64
}

// sweepDisciplines are the load sweep's columns.
var sweepDisciplines = []discipline{fifo, wfq, fifoPlus}

// SweepLoad grows the number of Table-1 Markov flows on one link from low
// to overload and records the aggregate delay statistics under each
// discipline. This is the delay-vs-utilization curve implied throughout the
// paper's argument: sharing's advantage over isolation grows as the link
// fills, and every discipline's tail diverges as utilization approaches 1.
func SweepLoad(cfg RunConfig, flowCounts []int) []SweepPoint {
	cfg.fill()
	if len(flowCounts) == 0 {
		flowCounts = []int{4, 6, 8, 10, 11}
	}
	ds := sweepDisciplines
	out := make([]SweepPoint, len(flowCounts))
	for fi, nf := range flowCounts {
		out[fi] = SweepPoint{Flows: nf, P999: map[string]float64{}, Mean: map[string]float64{}}
	}
	// Fan the (flow count x discipline) grid of independent simulations
	// across workers; each job fills its own cell.
	grid := make([]DelayStats, len(flowCounts)*len(ds))
	util := make([]float64, len(grid))
	ForEach(len(grid), func(job int) {
		w := singleLink(flowCounts[job/len(ds)], ds[job%len(ds)])
		s := w.compile(cfg)
		s.Run()
		grid[job] = mergeRecorders(s, w.flows)
		util[job] = port(s, "A", "B").TotalUtilization(cfg.Duration)
	})
	for job, agg := range grid {
		pt, d := &out[job/len(ds)], ds[job%len(ds)]
		pt.P999[d.name], pt.Mean[d.name], pt.Utilization = agg.P999, agg.Mean, util[job]
	}
	return out
}

// FormatSweep renders the load sweep.
func FormatSweep(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("Load sweep: aggregate delay vs utilization, single link\n")
	fmt.Fprintf(&b, "%6s %6s", "flows", "util")
	for _, d := range sweepDisciplines {
		fmt.Fprintf(&b, " |%12s", d.name)
	}
	b.WriteString("   (mean / 99.9%ile ms)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %5.1f%%", p.Flows, 100*p.Utilization)
		for _, d := range sweepDisciplines {
			fmt.Fprintf(&b, " |%5.2f %6.1f", p.Mean[d.name], p.P999[d.name])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// distDisciplines are the disciplines `ispnsim dist` draws, in order.
var distDisciplines = []discipline{wfq, fifo}

// DelayDistribution runs the Table-1 workload under each of WFQ and FIFO and
// returns its aggregate delay histogram, in that order — the full
// distribution behind the summary rows, rendered by `ispnsim dist`.
func DelayDistribution(cfg RunConfig) []*stats.Histogram {
	cfg.fill()
	hs := make([]*stats.Histogram, len(distDisciplines))
	ForEach(len(hs), func(i int) {
		h := stats.NewDelayHistogram()
		s := singleLink(10, distDisciplines[i]).compile(cfg)
		for _, f := range s.Flows {
			f.Flow.Tap(func(_ *packet.Packet, q float64) { h.Add(q) })
		}
		s.Run()
		hs[i] = h
	})
	return hs
}
