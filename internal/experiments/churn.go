package experiments

import (
	"fmt"
	"strings"
)

// The churn stress experiment: a dumbbell bottleneck under a Poisson
// process of predicted-service "calls" that arrive through admission
// control, hold for an exponentially distributed time, and depart releasing
// their capacity — the dynamic workload the paper's Section 9 machinery
// exists for, which every static table hides. The grid sweeps offered churn
// (mean call inter-arrival) with admission control off and on; each cell is
// an independent scenario simulation fanned across the ForEach worker pool.

// ChurnCell is one (inter-arrival, admission) grid cell.
type ChurnCell struct {
	EveryMS   float64 // mean call inter-arrival, milliseconds
	Admission bool

	Arrivals  int64
	Admitted  int64
	Rejected  int64
	Departed  int64
	Delivered int64
	// Aggregate queueing delay over every admitted call (ms), plus the
	// static reference conference flow sharing the bottleneck.
	CallMeanMS float64
	CallP99MS  float64
	ConfP99MS  float64
	ConfBound  float64 // the conference's advertised bound (ms)
	Drops      int64   // bottleneck buffer drops
}

// churnScenarioSrc builds the cell's scenario. Everything dynamic rides the
// .ispn timeline subsystem, so this experiment and `ispnsim run` exercise
// exactly the same code path.
func churnScenarioSrc(everyMS float64, admission bool, duration float64, seed int64) string {
	adm := "off"
	if admission {
		adm = "on"
	}
	return fmt.Sprintf(`
# churn stress cell: every %.0fms, admission %s
net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], admission %s)
run :: Run(seed %d, horizon %.0fs)
db :: Dumbbell(left 2, right 2, access 10Mbps, bottleneck 1Mbps)

conf :: Predicted(rate 85kbps, bucket 50kbit, delay 1s, loss 1%%, class 1,
                  path db.l1 -> db.a -> db.b -> db.r1)
cam :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit)
cam -> conf

calls :: Churn(every %.0fms, hold 8s, service predicted, rate 64kbps, bucket 10kbit,
               delay 700ms, pps 64pps, size 1000bit, src cbr,
               paths [db.l1 -> db.a -> db.b -> db.r1,
                      db.l2 -> db.a -> db.b -> db.r2])
`, everyMS, adm, adm, seed, duration, everyMS)
}

// DefaultChurnEveryMS is the default sweep over mean call inter-arrivals:
// ~0.5 to ~8 offered 64 kbit/s calls per second against a 1 Mbit/s
// bottleneck, i.e. from comfortable to hopeless.
var DefaultChurnEveryMS = []float64{2000, 1000, 500, 250, 125}

// ChurnStress runs the churn grid. Cells are independent simulations and run
// under ForEach; reports are bit-identical to a sequential run.
func ChurnStress(cfg RunConfig) []ChurnCell {
	return ChurnStressGrid(cfg, DefaultChurnEveryMS)
}

// ChurnStressGrid is ChurnStress with an explicit inter-arrival sweep.
func ChurnStressGrid(cfg RunConfig, everyMS []float64) []ChurnCell {
	cfg.fill()
	var cells []ChurnCell
	for _, adm := range []bool{false, true} {
		for _, ev := range everyMS {
			cells = append(cells, ChurnCell{EveryMS: ev, Admission: adm})
		}
	}
	ForEach(len(cells), func(i int) {
		cell := &cells[i]
		src := churnScenarioSrc(cell.EveryMS, cell.Admission, cfg.Duration, cfg.Seed)
		rep := runCell("churn-cell.ispn", src, cfg.Shards)
		ch := rep.Churns[0]
		cell.Arrivals = ch.Arrivals
		cell.Admitted = ch.Admitted
		cell.Rejected = ch.Rejected
		cell.Departed = ch.Departed
		cell.Delivered = ch.Delivered
		cell.CallMeanMS = ch.MeanMS
		cell.CallP99MS = ch.PctMS[1] // percentiles default to [50, 99, 99.9]
		for _, fr := range rep.Flows {
			if fr.Name == "conf" {
				cell.ConfP99MS = fr.PctMS[1]
				cell.ConfBound = fr.BoundMS
			}
		}
		for _, l := range rep.Links {
			if l.Name == "db.a->db.b" {
				cell.Drops = l.Drops
			}
		}
	})
	return cells
}

// FormatChurn renders the churn stress grid.
func FormatChurn(cells []ChurnCell) string {
	var b strings.Builder
	b.WriteString("Churn stress: 64 kbit/s predicted calls vs a 1 Mbit/s dumbbell bottleneck\n")
	b.WriteString("(hold 8s; admission per Section 9 when on; conf = static 85 kbit/s reference flow)\n\n")
	fmt.Fprintf(&b, "%-9s %8s %8s %8s %8s %8s %10s %10s %10s %8s\n",
		"admission", "every", "arrive", "admit", "reject", "depart", "call-mean", "call-p99", "conf-p99", "drops")
	for _, c := range cells {
		adm := "off"
		if c.Admission {
			adm = "on"
		}
		fmt.Fprintf(&b, "%-9s %6.0fms %8d %8d %8d %8d %8.2fms %8.2fms %8.2fms %8d\n",
			adm, c.EveryMS, c.Arrivals, c.Admitted, c.Rejected, c.Departed,
			c.CallMeanMS, c.CallP99MS, c.ConfP99MS, c.Drops)
	}
	b.WriteString("\n(with admission off every call is \"admitted\" and the bottleneck collapses under\n")
	b.WriteString("overload; with it on, rejections hold per-call delay near the class target)\n")
	return b.String()
}
