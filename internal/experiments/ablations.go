package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/playback"
	"ispn/internal/sim"
)

// --- Ablation A (Section 5): isolation vs sharing --------------------------

// IsolationRow reports how one deliberately extra-bursty flow and its nine
// well-behaved peers fare under a discipline: under WFQ the burster absorbs
// its own jitter; under FIFO the jitter is spread over everyone.
type IsolationRow struct {
	Scheduler string
	Burster   DelayStats
	Others    DelayStats
}

// AblationIsolation runs the Table-1 setup with flow 1's burst size tripled.
func AblationIsolation(cfg RunConfig) []IsolationRow {
	cfg.fill()
	ds := []discipline{wfq, fifo}
	rows := make([]IsolationRow, len(ds))
	ForEach(len(ds), func(di int) {
		w := singleLink(10, ds[di])
		w.burst = map[uint32]float64{1: 3 * MeanBurst} // flow 1 is the ill-behaved client
		s := w.compile(cfg)
		s.Run()
		rows[di] = IsolationRow{
			Scheduler: ds[di].name,
			Burster:   toDelayStats(cellFlow(s, 1).Meter()),
			Others:    mergeRecorders(s, w.flows[1:]),
		}
	})
	return rows
}

// FormatIsolation renders the ablation-A rows.
func FormatIsolation(rows []IsolationRow) string {
	var b strings.Builder
	b.WriteString("Ablation A: one 3x-bursty flow among nine normal flows (single link)\n")
	fmt.Fprintf(&b, "%-12s %22s %22s\n", "scheduling", "burster mean/99.9%", "others mean/99.9%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f /%9.2f %10.2f /%9.2f\n",
			r.Scheduler, r.Burster.Mean, r.Burster.P999, r.Others.Mean, r.Others.P999)
	}
	return b.String()
}

// --- Ablation B (Section 6): jitter growth with hop count ------------------

// HopsRow gives the 99.9th-percentile delay of the longest-path flow on a
// chain of h hops, for each sharing discipline (keyed by name).
type HopsRow struct {
	Hops int
	P999 map[string]float64
}

// hopsDisciplines are ablation B's columns.
var hopsDisciplines = []discipline{fifo, fifoPlus, drr}

// AblationHops sweeps chain length 1..maxHops. Each link carries 10 flows:
// one end-to-end flow plus per-link local flows, mirroring the Figure-1
// loading discipline.
func AblationHops(cfg RunConfig, maxHops int) []HopsRow {
	cfg.fill()
	ds := hopsDisciplines
	// Fan the full (chain length x discipline) grid of independent
	// simulations across workers; each job writes its own result slot.
	results := make([]float64, maxHops*len(ds))
	ForEach(len(results), func(job int) {
		// Flow 1 travels end to end over N1..N(h+1); 9 local flows per link.
		h := job/len(ds) + 1
		nodes, flows := []string{"N1"}, []FlowPath{{ID: 1}}
		var links [][2]string
		var discs []discipline
		for i := 1; i <= h; i++ {
			nodes = append(nodes, fmt.Sprintf("N%d", i+1))
			lk := [2]string{nodes[i-1], nodes[i]}
			links, discs = append(links, lk), append(discs, ds[job%len(ds)])
			for k := 0; k < 9; k++ {
				flows = append(flows, FlowPath{ID: uint32(len(flows) + 1), Path: lk[:]})
			}
		}
		flows[0].Path = nodes
		s := world{nodes: nodes, links: links, discs: discs, flows: flows}.compile(cfg)
		s.Run()
		results[job] = toDelayStats(cellFlow(s, 1).Meter()).P999
	})
	rows := make([]HopsRow, maxHops)
	for h := range rows {
		rows[h] = HopsRow{Hops: h + 1, P999: map[string]float64{}}
		for di, d := range ds {
			rows[h].P999[d.name] = results[h*len(ds)+di]
		}
	}
	return rows
}

// FormatHops renders the ablation-B sweep.
func FormatHops(rows []HopsRow) string {
	var b strings.Builder
	b.WriteString("Ablation B: end-to-end 99.9th-percentile delay vs path length\n")
	ds := hopsDisciplines
	fmt.Fprintf(&b, "%5s %10s %10s %10s\n", "hops", ds[0].name, ds[1].name, ds[2].name)
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %10.2f %10.2f %10.2f\n", r.Hops, r.P999[ds[0].name], r.P999[ds[1].name], r.P999[ds[2].name])
	}
	return b.String()
}

// --- Ablation C (Section 9): measurement-based admission -------------------

// AdmissionResult compares measurement-based admission against worst-case
// (peak-rate) admission on one link with randomly arriving predicted flows.
type AdmissionResult struct {
	Policy            string
	Offered           int     // flows that asked for service
	Admitted          int     // flows admitted
	RealTimeUtil      float64 // mean real-time utilization achieved
	DelayTargetMisses int64   // delivered packets that exceeded the class target
	Delivered         int64
}

// AblationAdmission offers a stream of predicted flows (Markov sources,
// mean holding time 60 s) to a single link under (a) the Section 9
// measurement-based controller and (b) worst-case peak-rate admission.
func AblationAdmission(cfg RunConfig, offered int) []AdmissionResult {
	cfg.fill()
	policies := []string{"measurement", "worst-case"}
	out := make([]AdmissionResult, len(policies))
	ForEach(len(policies), func(i int) {
		out[i] = runAdmissionPolicy(cfg, offered, policies[i])
	})
	return out
}

// admissionTarget is the single class's generous per-switch delay target.
const admissionTarget = 0.25

// admissionSource generates one policy's cell: offered predicted flows
// f100, f101, … on one link A -> B, each arriving in an at block at the time
// the admission-arrivals stream draws and departing after a 30 s + Exp(30 s)
// hold. The measurement policy lets the §9 controller admit them. Worst-case
// admission never measures, so its peak-rate ledger runs here, over the
// arrivals and departures in time order (an arrival before a departure at the
// same instant, as the timeline fires them), and the cell declares only the
// flows it admits.
func admissionSource(cfg RunConfig, offered int, policy string) string {
	type call struct {
		id          uint32
		start, stop float64
	}
	rng := sim.DeriveRNG(cfg.Seed, "admission-arrivals")
	arrivalGap := cfg.Duration / float64(offered+1)
	calls := make([]call, offered)
	for i := range calls {
		start := min(arrivalGap*float64(i+1)*(0.5+rng.Float64()), cfg.Duration*0.95)
		hold := 30 + rng.Exp(30)
		calls[i] = call{uint32(100 + i), start, start + hold}
	}
	admission := "on"
	if policy == "worst-case" {
		admission = "off"
		peak := PeakFactor * AvgRate * PacketBits
		byStart := slices.Clone(calls)
		slices.SortStableFunc(byStart, func(a, b call) int { return cmp.Compare(a.start, b.start) })
		var stops []float64 // departure times of the calls on the ledger
		admitted := map[uint32]bool{}
		for _, c := range byStart {
			stops = slices.DeleteFunc(stops, func(t float64) bool { return t < c.start })
			if float64(len(stops)+1)*peak <= 0.9*LinkRate {
				stops = append(stops, c.stop)
				admitted[c.id] = true
			}
		}
		calls = slices.DeleteFunc(calls, func(c call) bool { return !admitted[c.id] })
	}
	var b strings.Builder
	header(&b, cfg, fmt.Sprintf(", classes 1, targets [%ss], admission %s", secs(admissionTarget), admission), []string{"A", "B"})
	b.WriteString("A -> B\n")
	spec := fmt.Sprintf("rate %.0fbps, bucket %dbit, delay %ss, loss 1%%, class 0", AvgRate*PacketBits, 20*PacketBits, secs(admissionTarget))
	for _, c := range calls {
		fmt.Fprintf(&b, "at %ss {\n", secs(c.start))
		markovFlow(&b, FlowPath{ID: c.id, Path: []string{"A", "B"}}, MeanBurst, "Predicted", spec)
		b.WriteString("}\n")
	}
	for _, c := range calls {
		if c.stop <= cfg.Duration {
			fmt.Fprintf(&b, "at %ss { remove f%d }\n", secs(c.stop), c.id)
		}
	}
	return b.String()
}

func runAdmissionPolicy(cfg RunConfig, offered int, policy string) AdmissionResult {
	s := compileCell("admission.ispn", admissionSource(cfg, offered, policy))
	var misses, delivered int64
	s.Net.OnFlow(func(f *core.Flow) {
		f.Tap(func(_ *packet.Packet, q float64) {
			delivered++
			if q > admissionTarget {
				misses++
			}
		})
	})
	s.Run()
	return AdmissionResult{
		Policy:            policy,
		Offered:           offered,
		Admitted:          int(s.Admission().Admitted),
		RealTimeUtil:      float64(port(s, "A", "B").TxBits()) / (LinkRate * cfg.Duration), // no datagrams
		DelayTargetMisses: misses,
		Delivered:         delivered,
	}
}

// FormatAdmission renders ablation C.
func FormatAdmission(rows []AdmissionResult) string {
	var b strings.Builder
	b.WriteString("Ablation C: measurement-based vs worst-case admission (single link)\n")
	fmt.Fprintf(&b, "%-12s %8s %9s %14s %14s\n", "policy", "offered", "admitted", "RT util", "target misses")
	for _, r := range rows {
		rate := 0.0
		if r.Delivered > 0 {
			rate = float64(r.DelayTargetMisses) / float64(r.Delivered)
		}
		fmt.Fprintf(&b, "%-12s %8d %9d %13.1f%% %8d (%.4f%%)\n",
			r.Policy, r.Offered, r.Admitted, 100*r.RealTimeUtil, r.DelayTargetMisses, 100*rate)
	}
	return b.String()
}

// --- Ablation D (Sections 2-3): adaptive vs rigid playback -----------------

// PlaybackResult compares a rigid client (play-back point at the a priori
// bound) with an adaptive client on the same flow.
type PlaybackResult struct {
	APrioriBoundMS  float64
	RigidPointMS    float64
	AdaptivePointMS float64 // time-averaged adaptive play-back point
	RigidLossRate   float64
	AdaptLossRate   float64
	Delay           DelayStats
}

// playbackSource generates playback's cell: the Figure-1 workload with every
// flow predicted in class 0.
func playbackSource(cfg RunConfig) string {
	return figure1Cell(cfg, "->", func(uint32) ServiceKind { return PredictedHigh })
}

// AblationPlayback runs playback's cell and attaches a rigid and an adaptive
// play-back client to the length-4 flow.
func AblationPlayback(cfg RunConfig) PlaybackResult {
	cfg.fill()
	s := compileCell("playback.ispn", playbackSource(cfg))
	watched := cellFlow(s, F401)
	bound := watched.Bound()
	rigid := playback.NewRigid(bound)
	adaptive := playback.NewAdaptive(playback.AdaptiveConfig{
		InitialPoint: bound,
		TargetLoss:   0.001,
	})
	eng := s.Net.Engine()
	watched.Tap(func(_ *packet.Packet, q float64) {
		rigid.Deliver(eng.Now(), q)
		adaptive.Deliver(eng.Now(), q)
	})
	s.Run()
	return PlaybackResult{
		APrioriBoundMS:  bound * UnitMS,
		RigidPointMS:    rigid.Point() * UnitMS,
		AdaptivePointMS: adaptive.MeanPoint() * UnitMS,
		RigidLossRate:   float64(rigid.Losses()) / float64(max(rigid.Total(), 1)),
		AdaptLossRate:   float64(adaptive.Losses()) / float64(max(adaptive.Total(), 1)),
		Delay:           toDelayStats(watched.Meter()),
	}
}

// FormatPlayback renders ablation D.
func FormatPlayback(r PlaybackResult) string {
	var b strings.Builder
	b.WriteString("Ablation D: adaptive vs rigid play-back point (predicted flow, 4 hops)\n")
	fmt.Fprintf(&b, "a priori bound: %.1f ms; measured delay mean %.2f / 99.9%% %.2f / max %.2f ms\n",
		r.APrioriBoundMS, r.Delay.Mean, r.Delay.P999, r.Delay.Max)
	fmt.Fprintf(&b, "rigid client:    point %8.1f ms, loss %.4f%%\n", r.RigidPointMS, 100*r.RigidLossRate)
	fmt.Fprintf(&b, "adaptive client: point %8.1f ms (time-avg), loss %.4f%%\n", r.AdaptivePointMS, 100*r.AdaptLossRate)
	return b.String()
}

// --- Ablation E (Section 10): jitter-offset-driven late discard ------------

// DiscardRow reports the effect of one discard threshold on the length-4
// flow of the Table-2 workload.
type DiscardRow struct {
	ThresholdMS float64 // 0 = discarding disabled
	Discarded   int64
	Delivered   int64
	P999        float64
	Max         float64
}

// AblationDiscard sweeps the Section 10 policy: a packet whose accumulated
// jitter offset exceeds the threshold is dropped inside the network, on the
// theory that it would miss its play-back point anyway.
func AblationDiscard(cfg RunConfig, thresholdsMS []float64) []DiscardRow {
	cfg.fill()
	if len(thresholdsMS) == 0 {
		thresholdsMS = []float64{0, 40, 20, 10}
	}
	rows := make([]DiscardRow, len(thresholdsMS))
	ForEach(len(thresholdsMS), func(ti int) {
		th := thresholdsMS[ti]
		w := figure1Chain(fifoPlus)
		s := w.compile(cfg)
		for _, lk := range w.links {
			port(s, lk[0], lk[1]).DiscardOffset = th / UnitMS
		}
		s.Run()
		var discarded int64
		for _, lk := range w.links {
			discarded += port(s, lk[0], lk[1]).Discarded()
		}
		d := toDelayStats(cellFlow(s, F401).Meter())
		rows[ti] = DiscardRow{
			ThresholdMS: th,
			Discarded:   discarded,
			Delivered:   int64(d.N),
			P999:        d.P999,
			Max:         d.Max,
		}
	})
	return rows
}

// FormatDiscard renders ablation E.
func FormatDiscard(rows []DiscardRow) string {
	var b strings.Builder
	b.WriteString("Ablation E: in-network late discard via the jitter-offset field\n")
	fmt.Fprintf(&b, "%12s %10s %10s %10s %10s\n", "threshold ms", "discarded", "delivered", "99.9%ile", "max")
	for _, r := range rows {
		th := "off"
		if r.ThresholdMS > 0 {
			th = fmt.Sprintf("%.0f", r.ThresholdMS)
		}
		fmt.Fprintf(&b, "%12s %10d %10d %10.2f %10.2f\n", th, r.Discarded, r.Delivered, r.P999, r.Max)
	}
	return b.String()
}
