package experiments

import (
	"fmt"
	"strings"
)

// MixedDeployment is the incremental-rollout study the per-link profile
// refactor exists for: how much of FIFO+'s cross-hop jitter sharing
// (Section 6, Table 2) survives when only a fraction of the hops on a path
// have been upgraded from FIFO to FIFO+?
//
// The workload is exactly Table 2's: the Figure-1 chain of four links, 22
// Markov flows, samples reported per path length. The sweep upgrades the
// links one at a time in traffic direction (L1 first); row k has the first
// k links running FIFO+ and the rest plain FIFO. Rows 0 and 4 generate
// exactly Table 2's FIFO and FIFO+ cells, so they reproduce those rows bit
// for bit — the calibration that the mixed rows interpolate between.

// MixedRow is one rollout point: k of the chain's links run FIFO+.
type MixedRow struct {
	// UpgradedHops is k; Fraction is k over the number of links.
	UpgradedHops int
	Fraction     float64
	// PerPath[i] is the sample flow of path length i+1 (Table 2's
	// columns).
	PerPath [4]DelayStats
}

// MixedDeployment sweeps the FIFO+ rollout fraction over the Figure-1
// chain, fanning the independent simulations across workers: parallelism
// comes from the sweep itself.
func MixedDeployment(cfg RunConfig) []MixedRow {
	cfg.fill()
	links := len(Figure1Links())
	rows := make([]MixedRow, links+1)
	ForEach(len(rows), func(k int) {
		w := figure1Chain(fifo)
		for i := range k {
			w.discs[i] = fifoPlus
		}
		rows[k] = MixedRow{UpgradedHops: k, Fraction: float64(k) / float64(links), PerPath: chainSamples(cfg, w)}
	})
	return rows
}

// FormatMixed renders the rollout sweep like Table 2, one row per upgraded
// hop count.
func FormatMixed(rows []MixedRow) string {
	var b strings.Builder
	b.WriteString("Partial FIFO+ rollout on the Figure-1 chain (Table-2 workload)\n")
	b.WriteString("                    Path Length\n")
	fmt.Fprintf(&b, "%-12s", "FIFO+ hops")
	for k := 1; k <= 4; k++ {
		fmt.Fprintf(&b, " |%6s %9s", "mean", "99.9%ile")
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d/4 (%3.0f%%)  ", r.UpgradedHops, r.Fraction*100)
		for _, s := range r.PerPath {
			fmt.Fprintf(&b, " |%6.2f %9.2f", s.Mean, s.P999)
		}
		b.WriteString("\n")
	}
	b.WriteString("(0/4 is Table 2's FIFO row, 4/4 its FIFO+ row, bit-identical)\n")
	return b.String()
}
