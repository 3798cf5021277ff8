package sched

// Flow0ID is the reserved flow id of the pseudo WFQ flow that carries all
// predicted-service and datagram traffic in the unified scheduler.
const Flow0ID = ^uint32(0)

// UnifiedConfig configures the Section 7 unified scheduler at one output
// port.
type UnifiedConfig struct {
	// LinkRate is the output link bandwidth in bits/second.
	LinkRate float64
	// PredictedClasses is K, the number of strict-priority predicted
	// service classes above the datagram class.
	PredictedClasses int
	// FIFOPlusGain is the EWMA gain of the per-class average delay
	// (0 = DefaultFIFOPlusGain).
	FIFOPlusGain float64
	// PlainFIFO replaces FIFO+ with plain FIFO inside each predicted
	// class (single-hop configurations and ablations).
	PlainFIFO bool
	// RoundRobin replaces FIFO+ with per-flow round robin inside each
	// predicted class — the Jacobson–Floyd sharing alternative discussed
	// in Section 11 (ablation).
	RoundRobin bool
	// MaxPacketBits sizes the round-robin quantum; only used with
	// RoundRobin. 0 means 1000 bits (the paper's packet size).
	MaxPacketBits int
}

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

// NewUnified builds a unified scheduler for one output port.
func NewUnified(cfg UnifiedConfig) *Unified {
	if cfg.LinkRate <= 0 {
		panic("sched: Unified link rate must be positive")
	}
	if cfg.PredictedClasses < 1 {
		panic("sched: Unified needs at least one predicted class")
	}
	levels := make([]Scheduler, cfg.PredictedClasses+1)
	for i := 0; i < cfg.PredictedClasses; i++ {
		switch {
		case cfg.PlainFIFO:
			levels[i] = NewFIFO()
		case cfg.RoundRobin:
			q := cfg.MaxPacketBits
			if q == 0 {
				q = 1000
			}
			levels[i] = NewDRR(float64(q), true)
		default:
			levels[i] = NewFIFOPlus(cfg.FIFOPlusGain)
		}
	}
	levels[cfg.PredictedClasses] = NewFIFO() // datagram
	prio := NewPriority(levels, ClassifyByHeader(len(levels)))

	w := NewWFQ(cfg.LinkRate)
	w.AddFlowScheduler(Flow0ID, cfg.LinkRate, prio)
	w.SetFallback(Flow0ID)
	return &Unified{
		isoPipeline: isoPipeline{rateScheduler: w, linkRate: cfg.LinkRate},
		levels:      levels,
	}
}

// PredictedClass returns the scheduler of predicted class i (0 = highest),
// for measurement hooks; the returned value is a *FIFOPlus unless the
// configuration replaced it.
func (u *Unified) PredictedClass(i int) Scheduler { return u.levels[i] }

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
