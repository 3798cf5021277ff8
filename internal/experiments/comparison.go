package experiments

import (
	"fmt"
	"strings"

	"ispn/internal/sched"
)

// ComparisonRow is one discipline's aggregate result on the shared-link
// workload, with the per-flow view split out for the isolation analysis.
type ComparisonRow struct {
	Name      string
	Aggregate DelayStats
	// Sample is flow 1's own statistics.
	Sample DelayStats
	// WorkConserving is false for the framing/regulating disciplines.
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
	specs := []struct {
		name string
		wc   bool
		mk   linkScheduler
	}{
		{"FIFO", true, uniform(DiscFIFO)},
		{"FIFO+", true, uniform(DiscFIFOPlus)},
		{"WFQ", true, uniform(DiscWFQ)},
		{"VirtualClock", true, uniform(DiscVC)},
		{"Delay-EDD", true, func(_, _ string, flowsHere []FlowPath) sched.Scheduler {
			e := sched.NewDelayEDD()
			for _, f := range flowsHere {
				// Peak rate 2A, local budget comparable to the
				// observed FIFO tail.
				e.AddFlow(f.ID, PeakFactor*AvgRate, 0.030)
			}
			return e
		}},
		{"DRR", true, uniform(DiscRR)},
		{"Stop-and-Go", false, func(string, string, []FlowPath) sched.Scheduler {
			// Frame of 10 packet times.
			return sched.NewStopAndGo(0.010)
		}},
	}
	rows := make([]ComparisonRow, len(specs))
	ForEach(len(specs), func(si int) {
		spec := specs[si]
		w := singleLink(10, "cmp", spec.mk)
		run := w.run(cfg)
		rows[si] = ComparisonRow{
			Name:           spec.name,
			Aggregate:      mergeRecorders(run, w.flows),
			Sample:         toDelayStats(run.rec[1]),
			WorkConserving: spec.wc,
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
