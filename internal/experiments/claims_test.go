package experiments

import (
	"fmt"
	"testing"
)

// The paper's claims as inequalities over the catalogue's result structs
// (never the formatted text), each required at every seed of claimSeeds at
// the golden's 30 s horizon and, unless -short, at 180 s. A golden that moves
// on purpose is accepted only while these still hold; `make claims` runs
// them inside `make ci`.
//
// Three orderings are deliberately not claimed because the simulator does
// not bear them out at every seed. At 4 hops FIFO's p99.9 is not always below
// WFQ's (it is above at seed 1). §5's bursty flow does not hurt its
// neighbours more under FIFO: their p99.9 is lower under FIFO than under WFQ
// at every seed. And under WFQ the burster's p99.9 is not always above its
// neighbours' aggregate: it is below at seed 7 at 30 s, and on the streams
// the raw-port worlds used before the scenario compiler built them, at seed 4
// at 120 s. TestAblationIsolationShape pins it at one long run instead.
//
// Two more are not claimed because they fail today. Table 3's guaranteed
// packets do not all sit within the packetised Parekh-Gallager bound
// (core.PGBoundPacketized): the 2-hop Guaranteed-Peak flow's max crosses it
// in 13 of the 16 runs, by up to 0.82 ms (14.58 against 13.76 at seed 6).
// That is WFQ's virtual time counting real rather than fluid backlog
// (ROADMAP item 2), and TestTable3Shape holds those rows to the bound plus
// one packet time until it is fixed. Nor does §2's adaptive client meet its
// 0.1% loss target: over seeds 1-8 it loses up to 0.84% at 30 s and up to
// 0.20% at 180 s.

var claimSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// claims pairs each claim with its check, which returns what broke (nil
// when the claim holds under cfg).
var claims = []struct {
	name  string
	check func(cfg RunConfig) error
}{
	{"T1", func(cfg RunConfig) error {
		// One link, like flows: sharing beats isolation.
		rows := Table1(cfg)
		wfq := find(rows, func(r Table1Row) string { return string(r.Scheduler) }, "WFQ")
		fifo := find(rows, func(r Table1Row) string { return string(r.Scheduler) }, "FIFO")
		if !(fifo.AllFlows.P999 < wfq.AllFlows.P999) {
			return fmt.Errorf("FIFO aggregate p99.9 %.2f not below WFQ %.2f", fifo.AllFlows.P999, wfq.AllFlows.P999)
		}
		return nil
	}},
	{"T2", func(cfg RunConfig) error {
		// FIFO+ keeps sharing's advantage across hops.
		rows := Table2(cfg)
		label := func(r Table2Row) string { return string(r.Scheduler) }
		wfq, fifo, plus := find(rows, label, "WFQ"), find(rows, label, "FIFO"), find(rows, label, "FIFO+")
		p4 := func(r Table2Row) float64 { return r.PerPath[3].P999 }
		growth := func(r Table2Row) float64 { return r.PerPath[3].P999 - r.PerPath[0].P999 }
		if !(p4(plus) < p4(fifo) && p4(plus) < p4(wfq)) {
			return fmt.Errorf("FIFO+ p99.9 at 4 hops %.2f not below FIFO %.2f and WFQ %.2f", p4(plus), p4(fifo), p4(wfq))
		}
		if !(growth(plus) < growth(fifo)) {
			return fmt.Errorf("FIFO+ p99.9 growth over 1-4 hops %.2f not below FIFO's %.2f", growth(plus), growth(fifo))
		}
		return nil
	}},
	{"T3", func(cfg RunConfig) error {
		// The unified scheduler: a clock rate at the peak buys far less
		// delay than one at the average, and priority separates the
		// predicted classes.
		r := Table3(cfg)
		peak, avg := r.ByKind[GuaranteedPeak], r.ByKind[GuaranteedAvg]
		if !(peak.P999 < avg.P999 && peak.Mean < avg.Mean) {
			return fmt.Errorf("Guaranteed-Peak p99.9/mean %.2f/%.2f not below Guaranteed-Avg's %.2f/%.2f", peak.P999, peak.Mean, avg.P999, avg.Mean)
		}
		if high, low := r.ByKind[PredictedHigh], r.ByKind[PredictedLow]; !(high.P999 < low.P999) {
			return fmt.Errorf("Predicted-High p99.9 %.2f not below Predicted-Low's %.2f", high.P999, low.P999)
		}
		// Datagram traffic absorbs the slack without costing real-time
		// traffic a packet.
		for i, u := range r.LinkUtil {
			if u < 0.975 {
				return fmt.Errorf("link L%d utilization %.4f below 97.5%%", i+1, u)
			}
		}
		if r.RealTimeDropped != 0 {
			return fmt.Errorf("%d real-time packets dropped", r.RealTimeDropped)
		}
		return nil
	}},
	{"sec9-admission", func(cfg RunConfig) error {
		// Measuring the load admits more than declared peaks do, and the
		// admitted flows still meet their target.
		rows := AblationAdmission(cfg, 150)
		label := func(r AdmissionResult) string { return r.Policy }
		m, w := find(rows, label, "measurement"), find(rows, label, "worst-case")
		if !(m.Admitted > w.Admitted) {
			return fmt.Errorf("measurement admitted %d, not more than worst-case's %d", m.Admitted, w.Admitted)
		}
		if m.DelayTargetMisses != 0 {
			return fmt.Errorf("measurement-admitted flows missed the target %d times", m.DelayTargetMisses)
		}
		return nil
	}},
	{"sec2-playback", func(cfg RunConfig) error {
		// Adapting the play-back point to the delays seen beats holding it at
		// the a priori bound.
		r := AblationPlayback(cfg)
		if !(r.AdaptivePointMS < 0.5*r.RigidPointMS) {
			return fmt.Errorf("adaptive point %.2f ms not below half the rigid point %.2f ms", r.AdaptivePointMS, r.RigidPointMS)
		}
		if r.RigidLossRate != 0 {
			return fmt.Errorf("rigid client lost %.4f%% at the a priori bound", 100*r.RigidLossRate)
		}
		return nil
	}},
	{"sec5-isolation", func(cfg RunConfig) error {
		// Isolation puts the burst on its sender.
		rows := AblationIsolation(cfg)
		label := func(r IsolationRow) string { return string(r.Scheduler) }
		wfq, fifo := find(rows, label, "WFQ"), find(rows, label, "FIFO")
		if !(wfq.Burster.P999 > fifo.Burster.P999) {
			return fmt.Errorf("burster p99.9 under WFQ %.2f not above its FIFO value %.2f", wfq.Burster.P999, fifo.Burster.P999)
		}
		// Sharing spreads it over the aggregate instead.
		if fifo.Burster.P999 > 1.5*fifo.Others.P999 {
			return fmt.Errorf("under FIFO the burster's p99.9 %.2f is over 1.5x the others' %.2f", fifo.Burster.P999, fifo.Others.P999)
		}
		return nil
	}},
	{"sec10-discard", func(cfg RunConfig) error {
		// Late discard trims the long path's tail.
		rows := AblationDiscard(cfg, []float64{0, 10})
		off, on := rows[0], rows[1]
		if !(on.P999 < off.P999 && on.Max < off.Max) {
			return fmt.Errorf("10 ms threshold p99.9/max %.2f/%.2f not below the off row's %.2f/%.2f", on.P999, on.Max, off.P999, off.Max)
		}
		return nil
	}},
	{"compare", func(cfg RunConfig) error {
		// Framing trades mean delay for jitter; sharing has the lower tail.
		rows := CompareDisciplines(cfg)
		label := func(r ComparisonRow) string { return r.Name }
		sg, fifo := find(rows, label, "Stop-and-Go"), find(rows, label, "FIFO")
		for _, r := range rows {
			if r.Name == sg.Name {
				continue
			}
			if !r.WorkConserving || r.Aggregate.Mean >= sg.Aggregate.Mean {
				return fmt.Errorf("%s (mean %.2f, work-conserving %v) vs Stop-and-Go (mean %.2f, work-conserving %v)",
					r.Name, r.Aggregate.Mean, r.WorkConserving, sg.Aggregate.Mean, sg.WorkConserving)
			}
		}
		if sg.WorkConserving {
			return fmt.Errorf("Stop-and-Go marked work-conserving")
		}
		for _, iso := range []string{"WFQ", "VirtualClock"} {
			if r := find(rows, label, iso); !(fifo.Aggregate.P999 < r.Aggregate.P999) {
				return fmt.Errorf("FIFO p99.9 %.2f not below %s %.2f", fifo.Aggregate.P999, iso, r.Aggregate.P999)
			}
		}
		return nil
	}},
}

func TestClaims(t *testing.T) {
	horizons := []float64{30, 180}
	if testing.Short() {
		horizons = horizons[:1]
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			for _, d := range horizons {
				for _, seed := range claimSeeds {
					if err := c.check(RunConfig{Duration: d, Seed: seed}); err != nil {
						t.Errorf("%.0f s, seed %d: %v", d, seed, err)
					}
				}
			}
		})
	}
}

// find returns the row of rows whose label is want.
func find[R any](rows []R, label func(R) string, want string) R {
	for _, r := range rows {
		if label(r) == want {
			return r
		}
	}
	panic(fmt.Sprintf("no %q row", want))
}
