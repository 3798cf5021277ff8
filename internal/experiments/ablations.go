package experiments

import (
	"fmt"
	"strings"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/playback"
	"ispn/internal/source"
	"ispn/internal/topology"
)

// --- Ablation A (Section 5): isolation vs sharing --------------------------

// IsolationRow reports how one deliberately extra-bursty flow and its nine
// well-behaved peers fare under a discipline: under WFQ the burster absorbs
// its own jitter; under FIFO the jitter is spread over everyone.
type IsolationRow struct {
	Scheduler Discipline
	Burster   DelayStats
	Others    DelayStats
}

// AblationIsolation runs the Table-1 setup with flow 1's burst size tripled.
func AblationIsolation(cfg RunConfig) []IsolationRow {
	cfg.fill()
	ds := []Discipline{DiscWFQ, DiscFIFO}
	rows := make([]IsolationRow, len(ds))
	ForEach(len(ds), func(di int) {
		w := singleLink(10, "iso", uniform(ds[di]))
		w.burst = func(id uint32) float64 {
			if id == 1 {
				return 3 * MeanBurst // the ill-behaved client
			}
			return MeanBurst
		}
		run := w.run(cfg)
		rows[di] = IsolationRow{
			Scheduler: ds[di],
			Burster:   toDelayStats(run.rec[1]),
			Others:    mergeRecorders(run, w.flows[1:]),
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
// chain of h hops, for each sharing discipline.
type HopsRow struct {
	Hops int
	P999 map[Discipline]float64
}

// AblationHops sweeps chain length 1..maxHops. Each link carries 10 flows:
// one end-to-end flow plus per-link local flows, mirroring the Figure-1
// loading discipline.
func AblationHops(cfg RunConfig, maxHops int) []HopsRow {
	cfg.fill()
	if maxHops < 1 {
		maxHops = 4
	}
	disciplines := []Discipline{DiscFIFO, DiscFIFOPlus, DiscRR}
	// Fan the full (chain length x discipline) grid of independent
	// simulations across workers; each job writes its own result slot.
	results := make([][]float64, maxHops)
	for i := range results {
		results[i] = make([]float64, len(disciplines))
	}
	ForEach(maxHops*len(disciplines), func(job int) {
		h := job/len(disciplines) + 1
		d := disciplines[job%len(disciplines)]
		nodes := make([]string, h+1)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("N%d", i+1)
		}
		var links [][2]string
		for i := 0; i < h; i++ {
			links = append(links, [2]string{nodes[i], nodes[i+1]})
		}
		// Flow 1 travels end to end; 9 local flows per link.
		flows := []FlowPath{{ID: 1, Path: nodes}}
		id := uint32(2)
		for i := 0; i < h; i++ {
			for k := 0; k < 9; k++ {
				flows = append(flows, FlowPath{ID: id, Path: []string{nodes[i], nodes[i+1]}})
				id++
			}
		}
		w := rawWorld{nodes: nodes, links: links, flows: flows, stream: "markov", sched: uniform(d)}
		run := w.run(cfg)
		results[h-1][job%len(disciplines)] = toDelayStats(run.rec[1]).P999
	})
	rows := make([]HopsRow, maxHops)
	for h := 1; h <= maxHops; h++ {
		row := HopsRow{Hops: h, P999: map[Discipline]float64{}}
		for di, d := range disciplines {
			row.P999[d] = results[h-1][di]
		}
		rows[h-1] = row
	}
	return rows
}

// FormatHops renders the ablation-B sweep.
func FormatHops(rows []HopsRow) string {
	var b strings.Builder
	b.WriteString("Ablation B: end-to-end 99.9th-percentile delay vs path length\n")
	fmt.Fprintf(&b, "%5s %10s %10s %10s\n", "hops", "FIFO", "FIFO+", "RR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %10.2f %10.2f %10.2f\n",
			r.Hops, r.P999[DiscFIFO], r.P999[DiscFIFOPlus], r.P999[DiscRR])
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
	if offered == 0 {
		offered = 40
	}
	policies := []string{"measurement", "worst-case"}
	out := make([]AdmissionResult, len(policies))
	ForEach(len(policies), func(i int) {
		out[i] = runAdmissionPolicy(cfg, offered, policies[i])
	})
	return out
}

func runAdmissionPolicy(cfg RunConfig, offered int, policy string) AdmissionResult {
	classTarget := 0.25 // generous per-switch target for the single class
	n := core.New(core.Config{
		LinkRate:         LinkRate,
		PredictedClasses: 1,
		ClassTargets:     []float64{classTarget},
		AdmissionControl: policy == "measurement",
		Seed:             cfg.Seed,
	})
	n.AddSwitch("A")
	n.AddSwitch("B")
	port := n.Connect("A", "B")
	res := AdmissionResult{Policy: policy, Offered: offered}
	var rtBits float64
	prev := port.OnTransmit
	port.OnTransmit = func(p *packet.Packet, now float64) {
		if prev != nil {
			prev(p, now)
		}
		if p.Class != packet.Datagram {
			rtBits += float64(p.Size)
		}
	}

	eng := n.Engine()
	rng := n.RNG("admission-arrivals")
	var misses, delivered int64
	peakWorst := 0.0 // worst-case ledger for the peak-rate policy

	arrivalGap := cfg.Duration / float64(offered+1)
	for i := 0; i < offered; i++ {
		i := i
		start := arrivalGap * float64(i+1) * (0.5 + rng.Float64())
		if start > cfg.Duration*0.95 {
			start = cfg.Duration * 0.95
		}
		hold := 30 + rng.Exp(30)
		eng.AtControl(start, func() {
			id := uint32(100 + i)
			spec := core.PredictedSpec{
				TokenRate:  AvgRate * PacketBits,
				BucketBits: 20 * PacketBits,
				Delay:      classTarget,
				Loss:       0.01,
			}
			if policy == "worst-case" {
				// Admit on declared peak rate, never measured.
				if peakWorst+PeakFactor*AvgRate*PacketBits > 0.9*LinkRate {
					return
				}
				peakWorst += PeakFactor * AvgRate * PacketBits
			}
			fl, err := n.RequestPredictedClass(id, []string{"A", "B"}, 0, spec)
			if err != nil {
				return
			}
			res.Admitted++
			fl.Tap(func(p *packet.Packet, q float64) {
				delivered++
				if q > classTarget {
					misses++
				}
			})
			src := source.NewMarkov(source.MarkovConfig{
				FlowID: id, SizeBits: PacketBits,
				PeakRate: PeakFactor * AvgRate, AvgRate: AvgRate, Burst: MeanBurst,
				RNG: n.RNG(fmt.Sprintf("adm-%d", i)),
			})
			source.AttachPool(src, n.Pool())
			stop := eng.Now() + hold
			src.Start(eng, func(p *packet.Packet) {
				if eng.Now() < stop {
					fl.Inject(p)
				} else {
					packet.Release(p)
				}
			})
			eng.AtControl(stop, func() {
				if policy == "worst-case" {
					peakWorst -= PeakFactor * AvgRate * PacketBits
				}
				n.Release(id)
			})
		})
	}
	n.Run(cfg.Duration)
	res.RealTimeUtil = rtBits / (LinkRate * cfg.Duration)
	res.DelayTargetMisses = misses
	res.Delivered = delivered
	return res
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

// AblationPlayback runs the Figure-1 predicted workload and attaches a rigid
// and an adaptive play-back client to the length-4 predicted flow.
func AblationPlayback(cfg RunConfig) PlaybackResult {
	cfg.fill()
	n := core.New(core.Config{
		LinkRate:         LinkRate,
		PredictedClasses: 2,
		ClassTargets:     []float64{0.032, 0.32},
		Seed:             cfg.Seed,
	})
	for _, name := range Figure1Nodes() {
		n.AddSwitch(name)
	}
	for _, lk := range Figure1Links() {
		n.Connect(lk[0], lk[1])
	}
	var watched *core.Flow
	for _, fp := range Figure1Flows() {
		class := uint8(0)
		fl, err := n.RequestPredictedClass(fp.ID, fp.Path, class, core.PredictedSpec{
			TokenRate:  AvgRate * PacketBits,
			BucketBits: BucketSize * PacketBits,
			Delay:      1, Loss: 0.01,
		})
		if err != nil {
			panic(err)
		}
		if fp.ID == F401 {
			watched = fl
		}
		src := source.NewMarkov(source.MarkovConfig{
			FlowID: fp.ID, SizeBits: PacketBits,
			PeakRate: PeakFactor * AvgRate, AvgRate: AvgRate, Burst: MeanBurst,
			RNG: n.RNG(fmt.Sprintf("pb-%d", fp.ID)),
		})
		source.AttachPool(src, n.Pool())
		src.Start(n.Engine(), func(p *packet.Packet) { fl.Inject(p) })
	}
	bound := watched.Bound()
	rigid := playback.NewRigid(bound)
	adaptive := playback.NewAdaptive(playback.AdaptiveConfig{
		InitialPoint: bound,
		TargetLoss:   0.001,
	})
	watched.Tap(func(p *packet.Packet, q float64) {
		now := n.Engine().Now()
		rigid.Deliver(now, q)
		adaptive.Deliver(now, q)
	})
	n.Run(cfg.Duration)
	return PlaybackResult{
		APrioriBoundMS:  bound * UnitMS,
		RigidPointMS:    rigid.Point() * UnitMS,
		AdaptivePointMS: adaptive.MeanPoint() * UnitMS,
		RigidLossRate:   float64(rigid.Losses()) / float64(max64(rigid.Total(), 1)),
		AdaptLossRate:   float64(adaptive.Losses()) / float64(max64(adaptive.Total(), 1)),
		Delay:           toDelayStats(watched.Meter()),
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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
		w := figure1Chain("disc", uniform(DiscFIFOPlus))
		w.port = func(p *topology.Port) { p.DiscardOffset = th / UnitMS }
		run := w.run(cfg)
		var discarded int64
		for _, lk := range w.links {
			discarded += run.topo.Node(lk[0]).Port(lk[1]).Discarded()
		}
		s := toDelayStats(run.rec[F401])
		rows[ti] = DiscardRow{
			ThresholdMS: th,
			Discarded:   discarded,
			Delivered:   int64(s.N),
			P999:        s.P999,
			Max:         s.Max,
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
