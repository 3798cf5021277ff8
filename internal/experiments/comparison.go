package experiments

import (
	"fmt"
	"strings"
)

// ComparisonRow is one discipline's aggregate result on the shared-link
// workload, with the per-flow view split out for the isolation analysis.
type ComparisonRow struct {
	Name      string
	Aggregate DelayStats
	// Sample is flow 1's own statistics.
	Sample DelayStats
	// WorkConserving is false for a discipline whose port pipeline may
	// hold packets: the framing one.
	WorkConserving bool
}

// CompareDisciplines runs the Table-1 workload (10 Markov flows, one link)
// under the full scheduling zoo — the paper's Section 11 related work made
// concrete: WFQ and VirtualClock (time-stamp isolation), Delay-EDD (deadline
// isolation), FIFO and DRR (sharing), Stop-and-Go (framing,
// non-work-conserving). The paper's taxonomy predicts: the sharing
// disciplines have the lowest tail jitter, the isolating disciplines the
// strongest per-flow protection, and the framing discipline the highest
// mean delay with tightly clustered per-hop delays.
func CompareDisciplines(cfg RunConfig) []ComparisonRow {
	cfg.fill()
	ds := []discipline{fifo, fifoPlus, wfq, vclock, edd, drr, stopAndGo}
	rows := make([]ComparisonRow, len(ds))
	ForEach(len(ds), func(i int) {
		w := singleLink(10, ds[i])
		s := w.compile(cfg)
		s.Run()
		rows[i] = ComparisonRow{
			Name:           ds[i].name,
			Aggregate:      mergeRecorders(s, w.flows),
			Sample:         toDelayStats(cellFlow(s, 1).Meter()),
			WorkConserving: port(s, "A", "B").Pipeline().WorkConserving(),
		}
	})
	return rows
}

// FormatComparison renders the discipline comparison.
func FormatComparison(rows []ComparisonRow) string {
	var b strings.Builder
	b.WriteString("Scheduling discipline comparison (Table-1 workload, aggregate over 10 flows)\n")
	fmt.Fprintf(&b, "%-14s %8s %10s %8s %6s\n", "discipline", "mean", "99.9 %ile", "max", "WC")
	for _, r := range rows {
		wc := "yes"
		if !r.WorkConserving {
			wc = "no"
		}
		fmt.Fprintf(&b, "%-14s %8.2f %10.2f %8.2f %6s\n",
			r.Name, r.Aggregate.Mean, r.Aggregate.P999, r.Aggregate.Max, wc)
	}
	return b.String()
}
