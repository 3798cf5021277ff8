package sched

// Flow0ID is the reserved flow id of the pseudo WFQ flow that carries all
// predicted-service and datagram traffic on a reserving port.
const Flow0ID = ^uint32(0)

// unifiedStack builds the sharing half of the paper's unified scheduling
// algorithm (Section 7):
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
// residue of departed ones — is the Pipeline's, shared with the wfq and
// virtualclock kinds; the unified kind adds the stack built here as flow 0's
// child: one predicted class per class target, each running the profile's
// sharing discipline (FIFO+ by default; plain FIFO and the Section 11
// per-flow round robin are the ablations). The stack, its datagram FIFO and
// its FIFO+ classes are the pipeline's own values (the classes one
// []FIFOPlus), which it also reads to answer ClassDelayEstimate.
func (pl *Pipeline) unifiedStack() Scheduler {
	k := pl.prof.Classes()
	levels := pl.levelBuf[:0]
	switch pl.prof.Sharing {
	case SharingFIFO:
		for range k {
			levels = append(levels, NewFIFO())
		}
	case SharingRoundRobin:
		for range k {
			levels = append(levels, NewDRR(float64(pl.prof.MaxPacketBits)))
		}
	default:
		pl.measured = make([]FIFOPlus, k)
		for i := range pl.measured {
			pl.measured[i].init()
			levels = append(levels, &pl.measured[i])
		}
	}
	levels = append(levels, &pl.fifo) // datagram
	counts := pl.countBuf[:0]
	for range levels {
		counts = append(counts, 0)
	}
	pl.flow0.init(levels, counts)
	return &pl.flow0
}
