package experiments

import (
	"fmt"
	"strings"
)

// Table1Row is one line of the paper's Table 1: mean and 99.9th-percentile
// queueing delay of a sample flow (in packet transmission times) under one
// scheduling discipline on a single 83.5%-utilized link.
type Table1Row struct {
	Scheduler   Discipline
	Sample      DelayStats
	AllFlows    DelayStats // aggregate over all 10 flows (the paper notes per-flow data are similar)
	Utilization float64
}

// Table1 reproduces the paper's Table 1: a single link shared by 10
// identical Markov flows (A = 85 pkt/s), scheduled by WFQ (equal clock
// rates) and by FIFO. The paper's claim: means are nearly identical while
// FIFO's 99.9th percentile is far smaller, because FIFO multiplexes bursts
// across the aggregate instead of isolating each burst onto its sender.
func Table1(cfg RunConfig) []Table1Row {
	cfg.fill()
	ds := []Discipline{DiscWFQ, DiscFIFO}
	rows := make([]Table1Row, len(ds))
	ForEach(len(ds), func(i int) {
		w := singleLink(10, "markov", uniform(ds[i]))
		run := w.run(cfg)
		rows[i] = Table1Row{
			Scheduler:   ds[i],
			Sample:      toDelayStats(run.rec[w.flows[0].ID]),
			AllFlows:    mergeRecorders(run, w.flows),
			Utilization: run.utilization("A", "B", cfg.Duration),
		}
	})
	return rows
}

// FormatTable1 renders rows the way the paper prints Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: single link, 10 Markov flows (A=85 pkt/s), %d samples/flow\n", rows[0].Sample.N)
	fmt.Fprintf(&b, "%-12s %8s %10s   (aggregate: %8s %10s)  util\n", "scheduling", "mean", "99.9 %ile", "mean", "99.9 %ile")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.2f %10.2f   (           %8.2f %10.2f)  %4.1f%%\n",
			r.Scheduler, r.Sample.Mean, r.Sample.P999, r.AllFlows.Mean, r.AllFlows.P999, 100*r.Utilization)
	}
	return b.String()
}
