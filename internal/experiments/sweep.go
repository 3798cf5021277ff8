package experiments

import (
	"fmt"
	"strings"

	"ispn/internal/stats"
)

// SweepPoint is one offered-load level of the utilization sweep.
type SweepPoint struct {
	Flows       int
	Utilization float64
	P999        map[Discipline]float64 // aggregate 99.9%ile, ms
	Mean        map[Discipline]float64
}

// SweepLoad grows the number of Table-1 Markov flows on one link from low
// to overload and records the aggregate delay statistics under each
// discipline. This is the delay-vs-utilization curve implied throughout the
// paper's argument: sharing's advantage over isolation grows as the link
// fills, and every discipline's tail diverges as utilization approaches 1.
func SweepLoad(cfg RunConfig, flowCounts []int, disciplines []Discipline) []SweepPoint {
	cfg.fill()
	if len(flowCounts) == 0 {
		flowCounts = []int{4, 6, 8, 10, 11}
	}
	if len(disciplines) == 0 {
		disciplines = []Discipline{DiscFIFO, DiscWFQ, DiscFIFOPlus}
	}
	// Fan the (flow count x discipline) grid of independent simulations
	// across workers, then assemble rows in order.
	type cell struct {
		agg  DelayStats
		util float64
	}
	grid := make([][]cell, len(flowCounts))
	for i := range grid {
		grid[i] = make([]cell, len(disciplines))
	}
	ForEach(len(flowCounts)*len(disciplines), func(job int) {
		fi, di := job/len(disciplines), job%len(disciplines)
		w := singleLink(flowCounts[fi], "markov", uniform(disciplines[di]))
		run := w.run(cfg)
		grid[fi][di] = cell{
			agg:  mergeRecorders(run, w.flows),
			util: run.utilization("A", "B", cfg.Duration),
		}
	})
	out := make([]SweepPoint, len(flowCounts))
	for fi, nf := range flowCounts {
		pt := SweepPoint{
			Flows: nf,
			P999:  map[Discipline]float64{},
			Mean:  map[Discipline]float64{},
		}
		for di, d := range disciplines {
			pt.P999[d] = grid[fi][di].agg.P999
			pt.Mean[d] = grid[fi][di].agg.Mean
			pt.Utilization = grid[fi][di].util
		}
		out[fi] = pt
	}
	return out
}

// FormatSweep renders the load sweep.
func FormatSweep(points []SweepPoint, disciplines []Discipline) string {
	if len(disciplines) == 0 {
		disciplines = []Discipline{DiscFIFO, DiscWFQ, DiscFIFOPlus}
	}
	var b strings.Builder
	b.WriteString("Load sweep: aggregate delay vs utilization, single link\n")
	fmt.Fprintf(&b, "%6s %6s", "flows", "util")
	for _, d := range disciplines {
		fmt.Fprintf(&b, " |%12s", d)
	}
	b.WriteString("   (mean / 99.9%ile ms)\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%6d %5.1f%%", p.Flows, 100*p.Utilization)
		for _, d := range disciplines {
			fmt.Fprintf(&b, " |%5.2f %6.1f", p.Mean[d], p.P999[d])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DelayDistribution runs the Table-1 workload under one discipline and
// returns the aggregate delay histogram — the full distribution behind the
// summary rows, rendered by `ispnsim dist`.
func DelayDistribution(d Discipline, cfg RunConfig) *stats.Histogram {
	cfg.fill()
	h := stats.NewDelayHistogram()
	w := singleLink(10, "dist", uniform(d))
	w.deliver = func(_ uint32, q float64) { h.Add(q) }
	w.run(cfg)
	return h
}
