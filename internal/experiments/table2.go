package experiments

import (
	"fmt"
	"strings"
)

// Table2Row is one line of the paper's Table 2: one scheduling discipline's
// mean and 99.9th-percentile queueing delay for one sample flow of each path
// length over the Figure-1 network.
type Table2Row struct {
	Scheduler Discipline
	// PerPath[k] is the sample flow of path length k+1.
	PerPath [4]DelayStats
}

// Table2SampleFlows returns the flow chosen to represent each path length
// (the paper reports one sample per length; "the data from the other flows
// are similar").
func Table2SampleFlows() [4]uint32 { return [4]uint32{F101, F201, F301, F401} }

// Table2 reproduces the paper's Table 2: the Figure-1 chain, 22 Markov
// flows, under WFQ (equal clock rates), FIFO, and FIFO+. The paper's claim:
// mean delays are comparable everywhere, 99.9th-percentile delay grows with
// path length under all three, but much more slowly under FIFO+ because the
// jitter-offset field correlates sharing across hops. The (independent,
// seed-deterministic) simulations, one per discipline, fan across workers.
func Table2(cfg RunConfig) []Table2Row {
	ds := []Discipline{DiscWFQ, DiscFIFO, DiscFIFOPlus}
	cfg.fill()
	samples := Table2SampleFlows()
	rows := make([]Table2Row, len(ds))
	ForEach(len(ds), func(i int) {
		run := figure1Chain("markov", uniform(ds[i])).run(cfg)
		row := Table2Row{Scheduler: ds[i]}
		for k, id := range samples {
			row.PerPath[k] = toDelayStats(run.rec[id])
		}
		rows[i] = row
	})
	return rows
}

// FormatTable2 renders rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Figure-1 network, 22 Markov flows, per path length\n")
	b.WriteString("                    Path Length\n")
	fmt.Fprintf(&b, "%-12s", "scheduling")
	for k := 1; k <= 4; k++ {
		fmt.Fprintf(&b, " |%6s %9s", "mean", "99.9%ile")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Scheduler)
		for _, s := range r.PerPath {
			fmt.Fprintf(&b, " |%6.2f %9.2f", s.Mean, s.P999)
		}
		b.WriteString("\n")
	}
	return b.String()
}
