package sched

// Flow0ID is the reserved flow id of the pseudo WFQ flow that carries all
// predicted-service and datagram traffic in the unified scheduler.
const Flow0ID = ^uint32(0)

// Unified is the paper's unified scheduling algorithm (Section 7):
//
//   - every guaranteed flow α is a WFQ flow with clock rate r_α;
//   - all predicted and datagram traffic shares pseudo flow 0, whose WFQ
//     clock rate is the leftover µ − Σ r_α;
//   - inside flow 0, K strict-priority classes each run FIFO+, and datagram
//     traffic occupies a final, lowest priority level (plain FIFO).
//
// This realizes the paper's central design: isolation (WFQ) around sharing
// (priority + FIFO+). The isolation half — reservations, flow 0's leftover
// share, routing guaranteed packets to their clocked flow and demoting the
// residue of departed ones — is isoPipeline's, shared with the wfq and
// virtualclock kinds; Unified adds the sharing stack as flow 0's child.
type Unified struct {
	isoPipeline
	levels []Scheduler
}

// NewUnified builds the unified scheduler a normalized profile describes,
// for an output port of the given link rate (bits/second): one predicted
// class per class target, each running the profile's sharing discipline
// (FIFO+ by default; plain FIFO and the Section 11 per-flow round robin are
// the ablations).
func NewUnified(p Profile, linkRate float64) *Unified {
	if linkRate <= 0 {
		panic("sched: Unified link rate must be positive")
	}
	k := p.Classes()
	if k < 1 {
		panic("sched: Unified needs at least one predicted class")
	}
	levels := make([]Scheduler, k+1)
	for i := 0; i < k; i++ {
		switch p.Sharing {
		case SharingFIFO:
			levels[i] = NewFIFO()
		case SharingRoundRobin:
			levels[i] = NewDRR(float64(p.MaxPacketBits))
		default:
			levels[i] = NewFIFOPlus(p.FIFOPlusGain)
		}
	}
	levels[k] = NewFIFO() // datagram
	prio := NewPriority(levels, ClassifyByHeader(len(levels)))

	w := NewWFQ(linkRate)
	w.AddFlowScheduler(Flow0ID, linkRate, prio)
	w.SetFallback(Flow0ID)
	return &Unified{
		isoPipeline: isoPipeline{rateScheduler: w, table: &w.rateTable, linkRate: linkRate},
		levels:      levels,
	}
}

// ClassDelayEstimate returns the conservative measured delay d̂ᵢ of predicted
// class i at this port, used by admission control. It returns 0 when the
// class scheduler does not measure (plain FIFO / RR ablations).
func (u *Unified) ClassDelayEstimate(i int, now float64) float64 {
	if fp, ok := u.levels[i].(*FIFOPlus); ok {
		return fp.RecentMaxDelay(now)
	}
	return 0
}

var _ Scheduler = (*Unified)(nil)
