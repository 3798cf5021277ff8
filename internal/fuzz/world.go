// Package fuzz is the randomized scenario harness: a seeded generator of
// whole simulation worlds (topology, flow mix, timeline), a driver that
// runs each world under the invariant oracle, and a minimizer that shrinks
// any failure to a small reproducible .ispn corpus file.
//
// The generator is constrained to worlds whose invariants must hold:
// guaranteed sources conform to their token buckets (the Parekh-Gallager
// bound assumes conforming input), link rates only ever rise mid-run (the
// advertised bounds are computed against the rates at admission), and
// scheduling-profile swaps keep the unified pipeline (a guaranteed flow on
// a plain FIFO has no bound to check). Within those rules everything is
// fair game: all three service classes, all four topology generators, the
// full timeline verb set, and churn.
package fuzz

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ispn/internal/sim"
)

// World is one generated scenario, kept as a structure (not text) so the
// minimizer can drop parts and re-render.
type World struct {
	Seed      int64
	Horizon   float64
	Admission bool
	Routing   bool
	Topo      Topo
	Flows     []Flow
	Events    []Event
	Churn     *Churn
}

// Topo is the topology declaration plus the safe path/link pool the rest of
// the world draws from (Random topologies only use ring edges, which exist
// whatever the seed).
type Topo struct {
	Kind    string // Star / Dumbbell / ParkingLot / Random
	Size    int    // leaves / hops / nodes (unused for Dumbbell)
	Paths   [][]string
	Links   [][2]string // distinct on-path links, for fail/raise/swap events
	Reroute bool        // alternate paths exist, reroute verbs are meaningful
}

// Flow is one flow plus its attached source.
type Flow struct {
	Name     string
	Kind     string // Guaranteed / Predicted / Datagram
	RateKbps int    // spec rate (Guaranteed / Predicted)
	BucketKb int    // bucket in kbit
	DelayMS  int    // predicted end-to-end target
	Path     []string
	Src      Source
	At       float64 // arrival time; 0 = declared at compile
}

// Source is the traffic generator feeding a flow.
type Source struct {
	Kind string // cbr / poisson / markov
	PPS  int
	Peak int // markov only
}

// Event is one timeline action.
type Event struct {
	At       float64
	Verb     string // remove / renew / fail / restore / raise / swap / reroute
	Flow     string
	Link     [2]string
	RateKbps int    // renew / raise
	Sharing  string // swap: fifo / rr
}

// Churn is an optional flow-arrival process.
type Churn struct {
	Service  string // predicted / datagram
	EveryS   int
	HoldS    int
	RateKbps int
	PPS      int
	Paths    [][]string
}

// NewWorld generates the world for one case seed. Same seed, same world.
func NewWorld(seed int64) *World {
	rng := sim.DeriveRNG(seed, "fuzz:world")
	w := &World{
		Seed:      seed,
		Horizon:   float64(4 + rng.Intn(7)), // 4..10 s
		Admission: rng.Intn(5) < 2,
	}
	w.genTopology(rng)
	w.genFlows(rng)
	w.genChurn(rng)
	w.genEvents(rng)
	return w
}

func (w *World) genTopology(rng *sim.RNG) {
	t := &w.Topo
	switch rng.Intn(4) {
	case 0:
		t.Kind = "Star"
		t.Size = 3 + rng.Intn(3) // 3..5 leaves
		leaf := func(i int) string { return fmt.Sprintf("gen.leaf%d", i) }
		for i := 1; i <= t.Size; i++ {
			for j := 1; j <= t.Size; j++ {
				if i != j {
					t.Paths = append(t.Paths, []string{leaf(i), "gen.hub", leaf(j)})
				}
			}
			t.Links = append(t.Links, [2]string{leaf(i), "gen.hub"}, [2]string{"gen.hub", leaf(i)})
		}
	case 1:
		t.Kind = "Dumbbell"
		for _, l := range []string{"gen.l1", "gen.l2"} {
			for _, r := range []string{"gen.r1", "gen.r2"} {
				t.Paths = append(t.Paths, []string{l, "gen.a", "gen.b", r})
			}
		}
		t.Links = append(t.Links, [2]string{"gen.a", "gen.b"}, [2]string{"gen.b", "gen.a"})
	case 2:
		t.Kind = "ParkingLot"
		t.Size = 3 + rng.Intn(2) // 3..4 hops
		sw := func(i int) string { return fmt.Sprintf("gen.s%d", i) }
		for i := 1; i <= t.Size; i++ {
			t.Links = append(t.Links, [2]string{sw(i), sw(i + 1)})
		}
		for lo := 1; lo <= t.Size; lo++ {
			for hi := lo + 1; hi <= t.Size+1; hi++ {
				var p []string
				for i := lo; i <= hi; i++ {
					p = append(p, sw(i))
				}
				t.Paths = append(t.Paths, p)
			}
		}
	default:
		t.Kind = "Random"
		t.Size = 8 + rng.Intn(5) // 8..12 nodes
		t.Reroute = true         // chords give RerouteAround something to try
		node := func(i int) string { return fmt.Sprintf("gen.n%d", (i-1)%t.Size+1) }
		// Ring segments only: the ring exists whatever the chord stream does.
		for start := 1; start <= t.Size; start++ {
			for hops := 2; hops <= 3; hops++ {
				var p []string
				for i := start; i <= start+hops; i++ {
					p = append(p, node(i))
				}
				t.Paths = append(t.Paths, p)
			}
			t.Links = append(t.Links, [2]string{node(start), node(start + 1)})
		}
	}
}

func (w *World) genFlows(rng *sim.RNG) {
	n := 2 + rng.Intn(5) // 2..6 flows
	for i := 1; i <= n; i++ {
		f := Flow{
			Name: fmt.Sprintf("f%d", i),
			Path: w.Topo.Paths[rng.Intn(len(w.Topo.Paths))],
		}
		switch rng.Intn(3) {
		case 0:
			f.Kind = "Guaranteed"
			f.RateKbps = 50 + 25*rng.Intn(5) // 50..150 kbit/s
			f.BucketKb = 50
			// The PG bound assumes a conforming source: a CBR at 80% of
			// the clock rate never overdraws the bucket.
			f.Src = Source{Kind: "cbr", PPS: f.RateKbps * 8 / 10}
		case 1:
			f.Kind = "Predicted"
			f.RateKbps = 32 + 16*rng.Intn(4) // 32..80 kbit/s
			// Criterion 2 caps the bucket by the class target's headroom
			// (b < D·(µ−ν̂−r), about 29 kbit on an idle 1 Mbit/s link for
			// the 32 ms class); stay small so admitted mixes stay common.
			f.BucketKb = 10 + 10*rng.Intn(2)
			f.DelayMS = 500 + 250*rng.Intn(3)
			pps := f.RateKbps // 1000-bit packets: pps == kbit/s
			if rng.Intn(2) == 0 {
				f.Src = Source{Kind: "markov", PPS: pps, Peak: 2 * pps}
			} else {
				f.Src = Source{Kind: "poisson", PPS: pps}
			}
		default:
			f.Kind = "Datagram"
			f.Src = Source{Kind: "poisson", PPS: 50 + 50*rng.Intn(6)} // 100..350 pps
		}
		// A third of the flows arrive mid-run, through admission.
		if rng.Intn(3) == 0 && w.Horizon > 4 {
			f.At = float64(1 + rng.Intn(int(w.Horizon)-3))
		}
		w.Flows = append(w.Flows, f)
	}
}

func (w *World) genChurn(rng *sim.RNG) {
	if rng.Intn(3) != 0 {
		return
	}
	c := &Churn{
		EveryS: 2 + rng.Intn(3),
		HoldS:  3 + rng.Intn(5),
	}
	if rng.Intn(2) == 0 {
		c.Service, c.RateKbps, c.PPS = "predicted", 32, 32
	} else {
		c.Service, c.PPS = "datagram", 64
	}
	c.Paths = append(c.Paths, w.Topo.Paths[rng.Intn(len(w.Topo.Paths))])
	if p := w.Topo.Paths[rng.Intn(len(w.Topo.Paths))]; !slices.Equal(p, c.Paths[0]) {
		c.Paths = append(c.Paths, p)
	}
	w.Churn = c
}

func (w *World) genEvents(rng *sim.RNG) {
	w.Routing = w.Topo.Reroute && rng.Intn(2) == 0
	n := rng.Intn(6) // 0..5 events
	eventAt := func() float64 {
		return 1 + float64(float64(rng.Intn(int(w.Horizon*2)-3))/2) // 1.0 .. horizon-0.5, halves
	}
	raised := map[[2]string]bool{}
	for i := 0; i < n; i++ {
		at := eventAt()
		switch rng.Intn(5) {
		case 0: // remove a flow that has arrived by then
			f := w.Flows[rng.Intn(len(w.Flows))]
			if f.At >= at {
				continue
			}
			w.Events = append(w.Events, Event{At: at, Verb: "remove", Flow: f.Name})
		case 1: // renegotiate a guaranteed flow's clock rate upward
			f := w.Flows[rng.Intn(len(w.Flows))]
			if f.Kind != "Guaranteed" || f.At >= at {
				continue
			}
			w.Events = append(w.Events, Event{
				At: at, Verb: "renew", Flow: f.Name,
				RateKbps: f.RateKbps + 25*(1+rng.Intn(3)),
			})
		case 2: // fail a link, restore it 1-2 s later
			if at > w.Horizon-1.5 {
				continue
			}
			l := w.Topo.Links[rng.Intn(len(w.Topo.Links))]
			w.Events = append(w.Events,
				Event{At: at, Verb: "fail", Link: l},
				Event{At: at + 1 + float64(float64(rng.Intn(2))/2), Verb: "restore", Link: l})
		case 3: // raise a link's rate (never cut: bounds were admitted at the old rate)
			l := w.Topo.Links[rng.Intn(len(w.Topo.Links))]
			if raised[l] {
				continue
			}
			raised[l] = true
			w.Events = append(w.Events, Event{At: at, Verb: "raise", Link: l, RateKbps: 1000 + 500*(1+rng.Intn(3))})
		default:
			if w.Routing && rng.Intn(2) == 0 {
				// Reroute every flow off a link; refusals become warnings.
				l := w.Topo.Links[rng.Intn(len(w.Topo.Links))]
				w.Events = append(w.Events, Event{At: at, Verb: "reroute", Link: l})
			} else if !w.Admission {
				// Live sharing swap. Only without admission: predicted
				// targets are enforced then, and plain FIFO sharing is
				// allowed to miss them.
				l := w.Topo.Links[rng.Intn(len(w.Topo.Links))]
				sharing := "fifo"
				if rng.Intn(2) == 0 {
					sharing = "rr"
				}
				w.Events = append(w.Events, Event{At: at, Verb: "swap", Link: l, Sharing: sharing})
			}
		}
	}
	sort.SliceStable(w.Events, func(i, j int) bool { return w.Events[i].At < w.Events[j].At })
}

// Clone deep-copies the world so the minimizer can mutate candidates.
func (w *World) Clone() *World {
	out := *w
	out.Flows = append([]Flow(nil), w.Flows...)
	out.Events = append([]Event(nil), w.Events...)
	if w.Churn != nil {
		c := *w.Churn
		c.Paths = append([][]string(nil), w.Churn.Paths...)
		out.Churn = &c
	}
	return &out
}

// Render emits the world as .ispn source. The output is deterministic and
// self-contained: committing it to the corpus reproduces the case without
// the generator.
func (w *World) Render() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# fuzz world, case seed %d (replay: ispnsim fuzz -n 1 -seed %d)\n", w.Seed, w.Seed)
	b.WriteString("net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms]")
	if w.Admission {
		b.WriteString(", admission on")
	}
	if w.Routing {
		b.WriteString(", routing auto")
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %ss)\n\n", w.Seed, secs(w.Horizon))
	switch w.Topo.Kind {
	case "Star":
		fmt.Fprintf(&b, "gen :: Star(leaves %d, rate 1Mbps, delay 1ms)\n", w.Topo.Size)
	case "Dumbbell":
		b.WriteString("gen :: Dumbbell(left 2, right 2, access 10Mbps, bottleneck 1Mbps, delay 1ms)\n")
	case "ParkingLot":
		fmt.Fprintf(&b, "gen :: ParkingLot(hops %d, rate 1Mbps, delay 1ms)\n", w.Topo.Size)
	case "Random":
		fmt.Fprintf(&b, "gen :: Random(nodes %d, degree 3, rate 1Mbps, delay 1ms)\n", w.Topo.Size)
	}
	for _, f := range w.Flows {
		if f.At > 0 {
			continue
		}
		b.WriteString("\n")
		w.renderFlow(&b, f, "")
	}
	if c := w.Churn; c != nil {
		b.WriteString("\ncalls :: Churn(")
		fmt.Fprintf(&b, "every %ds, hold %ds, service %s, ", c.EveryS, c.HoldS, c.Service)
		if c.Service == "predicted" {
			fmt.Fprintf(&b, "rate %dkbps, bucket 10kbit, delay 700ms, ", c.RateKbps)
		}
		fmt.Fprintf(&b, "pps %dpps, size 1000bit, src cbr,\n               paths [", c.PPS)
		for i, p := range c.Paths {
			if i > 0 {
				b.WriteString(",\n                      ")
			}
			b.WriteString(strings.Join(p, " -> "))
		}
		b.WriteString("])\n")
	}
	// Timeline: flow arrivals and events merge into at blocks, in time order.
	type block struct {
		at    float64
		lines []string
	}
	var blocks []block
	add := func(at float64, lines ...string) {
		for i := range blocks {
			if blocks[i].at == at {
				blocks[i].lines = append(blocks[i].lines, lines...)
				return
			}
		}
		blocks = append(blocks, block{at: at, lines: lines})
	}
	for _, f := range w.Flows {
		if f.At <= 0 {
			continue
		}
		var fb strings.Builder
		w.renderFlow(&fb, f, "    ")
		add(f.At, strings.TrimRight(fb.String(), "\n"))
	}
	for _, ev := range w.Events {
		switch ev.Verb {
		case "remove":
			add(ev.At, fmt.Sprintf("    remove %s", ev.Flow))
		case "renew":
			add(ev.At, fmt.Sprintf("    renew %s (rate %dkbps)", ev.Flow, ev.RateKbps))
		case "fail", "restore", "reroute":
			add(ev.At, fmt.Sprintf("    %s %s -> %s", ev.Verb, ev.Link[0], ev.Link[1]))
		case "raise":
			add(ev.At, fmt.Sprintf("    %s -> %s :: Link(rate %dkbps)", ev.Link[0], ev.Link[1], ev.RateKbps))
		case "swap":
			add(ev.At, fmt.Sprintf("    %s -> %s :: Link(sharing %s)", ev.Link[0], ev.Link[1], ev.Sharing))
		}
	}
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].at < blocks[j].at })
	for _, bl := range blocks {
		fmt.Fprintf(&b, "\nat %ss {\n", secs(bl.at))
		for _, l := range bl.lines {
			b.WriteString(l)
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}
	return []byte(b.String())
}

// renderFlow writes one flow plus its source and attachment, indented for
// at-block use when indent is non-empty.
func (w *World) renderFlow(b *strings.Builder, f Flow, indent string) {
	path := strings.Join(f.Path, " -> ")
	switch f.Kind {
	case "Guaranteed":
		fmt.Fprintf(b, "%s%s :: Guaranteed(rate %dkbps, bucket %dkbit, path %s)\n",
			indent, f.Name, f.RateKbps, f.BucketKb, path)
	case "Predicted":
		fmt.Fprintf(b, "%s%s :: Predicted(rate %dkbps, bucket %dkbit, delay %dms, loss 1%%, path %s)\n",
			indent, f.Name, f.RateKbps, f.BucketKb, f.DelayMS, path)
	default:
		fmt.Fprintf(b, "%s%s :: Datagram(path %s)\n", indent, f.Name, path)
	}
	src := "src_" + f.Name
	switch f.Src.Kind {
	case "cbr":
		fmt.Fprintf(b, "%s%s :: CBR(rate %dpps, size 1000bit)\n", indent, src, f.Src.PPS)
	case "markov":
		fmt.Fprintf(b, "%s%s :: Markov(peak %dpps, avg %dpps, burst 5, size 1000bit)\n",
			indent, src, f.Src.Peak, f.Src.PPS)
	default:
		fmt.Fprintf(b, "%s%s :: Poisson(rate %dpps, size 1000bit)\n", indent, src, f.Src.PPS)
	}
	fmt.Fprintf(b, "%s%s -> %s\n", indent, src, f.Name)
}

// secs renders a time without trailing zeros (7, 2.5).
func secs(v float64) string { return fmt.Sprintf("%g", v) }
