package experiments

import (
	"fmt"
	"strings"
)

// The failover experiment: what a link failure costs each of the paper's
// three service classes, with and without failure-aware rerouting. The
// topology is the Table-2 chain (s1..s5) carrying one guaranteed circuit,
// one predicted conference and a datagram drizzle end to end, plus a backup
// path s2 -> b -> s3 around the link that fails for the middle third of the
// run. Without rerouting every flow blackholes into the downed port until
// restore; with `routing auto` the core recomputes paths, re-runs Section 9
// admission on the added hops, moves the guaranteed clock-rate reservations,
// and the flows keep delivering — the reservations-meet-dynamic-routing
// question this subsystem exists to answer.
//
// Both cells ride the .ispn timeline subsystem, so this experiment and
// `ispnsim run scenarios/failover.ispn` exercise the same code path, and the
// cells are independent simulations fanned across the ForEach worker pool
// (bit-identical to a sequential run).

// FailoverFlow is one flow's outcome in one cell.
type FailoverFlow struct {
	Name      string
	Service   string
	Delivered int64
	MeanMS    float64
	P99MS     float64
	BoundMS   float64 // advertised a priori bound (< 0: datagram, none)
	Reroutes  int64
	Refusals  int64
}

// FailoverRow is one cell: the run with or without rerouting.
type FailoverRow struct {
	Reroute bool
	Flows   []FailoverFlow
	// Reroutes/Refusals total the cell's routing activity; OutageDrops
	// counts packets the failed link s2->s3 dropped over the run.
	Reroutes    int64
	Refusals    int64
	OutageDrops int64
}

// failoverScenarioSrc builds one cell's scenario. The failure holds from
// one third to two thirds of the horizon.
func failoverScenarioSrc(reroute bool, duration float64, seed int64) string {
	routing := ""
	if reroute {
		routing = ", routing auto"
	}
	return fmt.Sprintf(`
# failover cell: reroute %v
net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], admission on%s)
run :: Run(seed %d, horizon %.0fs)
s1, s2, s3, s4, s5, b :: Switch
s1 -> s2 -> s3 -> s4 -> s5
s2 -> b -> s3

circuit :: Guaranteed(rate 100kbps, bucket 50kbit, path s1 -> s2 -> s3 -> s4 -> s5)
tone :: CBR(rate 100pps, size 1000bit)
tone -> circuit

conf :: Predicted(rate 85kbps, bucket 50kbit, delay 2s, loss 1%%, class 1,
                  path s1 -> s2 -> s3 -> s4 -> s5)
cam :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit)
cam -> conf

mail :: Datagram(path s1 -> s2 -> s3 -> s4 -> s5)
bg :: Poisson(rate 300pps, size 1000bit)
bg -> mail

at %.2fs { fail s2 -> s3 }
at %.2fs { restore s2 -> s3 }
`, reroute, routing, seed, duration, duration/3, 2*duration/3)
}

// Failover runs both cells (no-reroute baseline first) under ForEach.
func Failover(cfg RunConfig) []FailoverRow {
	cfg.fill()
	rows := make([]FailoverRow, 2)
	ForEach(len(rows), func(i int) {
		reroute := i == 1
		src := failoverScenarioSrc(reroute, cfg.Duration, cfg.Seed)
		rep := compileCell("failover-cell.ispn", src).Run()
		row := FailoverRow{Reroute: reroute}
		for _, fr := range rep.Flows {
			row.Flows = append(row.Flows, FailoverFlow{
				Name:      fr.Name,
				Service:   fr.Service,
				Delivered: fr.Delivered,
				MeanMS:    fr.MeanMS,
				P99MS:     fr.PctMS[1], // percentiles default to [50, 99, 99.9]
				BoundMS:   fr.BoundMS,
				Reroutes:  fr.Reroutes,
				Refusals:  fr.RerouteRefusals,
			})
		}
		if rep.Routing != nil {
			row.Reroutes = rep.Routing.Reroutes
			row.Refusals = rep.Routing.Refusals
		}
		for _, l := range rep.Links {
			if l.Name == "s2->s3" {
				row.OutageDrops = l.Drops
			}
		}
		rows[i] = row
	})
	return rows
}

// FormatFailover renders the failover comparison.
func FormatFailover(rows []FailoverRow) string {
	var b strings.Builder
	b.WriteString("Failover: a mid-run link failure on the Table-2 chain (s2->s3 down for the\n")
	b.WriteString("middle third), with a backup path s2->b->s3 available\n\n")
	for _, row := range rows {
		mode := "no reroute (frozen routes)"
		if row.Reroute {
			mode = "routing auto (failure-aware reroute)"
		}
		fmt.Fprintf(&b, "%s — %d reroute(s), %d refusal(s), %d packets dropped at the failed link\n",
			mode, row.Reroutes, row.Refusals, row.OutageDrops)
		fmt.Fprintf(&b, "  %-10s %-14s %10s %10s %10s %10s\n",
			"flow", "service", "delivered", "mean(ms)", "p99(ms)", "bound(ms)")
		for _, f := range row.Flows {
			bound := "none"
			if f.BoundMS >= 0 {
				bound = fmt.Sprintf("%.1f", f.BoundMS)
			}
			fmt.Fprintf(&b, "  %-10s %-14s %10d %10.2f %10.2f %10s\n",
				f.Name, f.Service, f.Delivered, f.MeanMS, f.P99MS, bound)
		}
		b.WriteString("\n")
	}
	b.WriteString("(with frozen routes every flow blackholes into the downed port until restore;\n")
	b.WriteString("with rerouting, admission re-runs on the added hops and delivery continues)\n")
	return b.String()
}
