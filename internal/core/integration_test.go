package core

import (
	"fmt"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
)

// Integration tests at Figure-1 scale: conservation laws and architectural
// invariants that must hold regardless of parameters.

func buildChainNet(cfg Config, k int) (*Network, []string) {
	n := New(cfg)
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i+1)
		n.AddSwitch(names[i])
	}
	for i := 0; i < k-1; i++ {
		n.Connect(names[i], names[i+1])
	}
	return n, names
}

// Every injected packet is either delivered, dropped at a buffer, or still
// in flight when the run ends. Nothing is created or destroyed.
func TestPacketConservation(t *testing.T) {
	n, names := buildChainNet(Config{Seed: 31}, 5)
	type book struct {
		injected int64
		flow     *Flow
	}
	books := map[uint32]*book{}
	for i, fp := range [][]string{
		names,      // 4 hops
		names[:3],  // 2 hops
		names[1:4], // 2 hops
		names[3:],  // 1 hop
		names[:2],  // 1 hop
	} {
		id := uint32(1 + i)
		fl, err := n.RequestPredictedClass(id, fp, 0, PredictedSpec{
			TokenRate: 85000, BucketBits: 50000, Delay: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		bk := &book{flow: fl}
		books[id] = bk
		src := source.NewMarkov(source.MarkovConfig{
			FlowID: id, SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5,
			RNG: sim.DeriveRNG(n.Config().Seed, fmt.Sprintf("cons-%d", id)),
		})
		src.Start(n.Engine(), func(p *packet.Packet) {
			if fl.Inject(p) {
				bk.injected++
			}
		})
	}
	n.Run(120)
	var inFlight int64
	for _, nd := range n.Topology().Nodes() {
		for _, pt := range nd.Ports() {
			inFlight += int64(pt.Pipeline().Len())
			if pt.Counter().Dropped != 0 {
				t.Fatalf("port %s dropped %d packets at modest load", pt.Name(), pt.Counter().Dropped)
			}
		}
	}
	var totalInjected, totalDelivered int64
	for _, bk := range books {
		totalInjected += bk.injected
		totalDelivered += bk.flow.Delivered()
	}
	// In-flight also includes packets in transmission (not in a queue);
	// allow one per port.
	slack := int64(len(n.Topology().Nodes()) * 2)
	diff := totalInjected - totalDelivered - inFlight
	if diff < 0 || diff > slack {
		t.Fatalf("conservation violated: injected %d, delivered %d, queued %d (diff %d)",
			totalInjected, totalDelivered, inFlight, diff)
	}
}

// Guaranteed isolation holds at Figure-1 scale with a hostile predicted
// load: flood every link with predicted traffic and check the guaranteed
// flow's bound end to end.
func TestGuaranteedIsolationUnderFlood(t *testing.T) {
	n, names := buildChainNet(Config{Seed: 32}, 5)
	g, err := n.RequestGuaranteed(1, names, GuaranteedSpec{ClockRate: 170000, BucketBits: 1000})
	if err != nil {
		t.Fatal(err)
	}
	gsrc := source.NewCBR(source.CBRConfig{FlowID: 1, SizeBits: 1000, Rate: 170})
	gsrc.Start(n.Engine(), func(p *packet.Packet) { g.Inject(p) })

	// Hostile load: per-link predicted flows at twice the link capacity.
	id := uint32(100)
	for i := 0; i < 4; i++ {
		for k := 0; k < 2; k++ {
			fl, err := n.RequestPredictedClass(id, []string{names[i], names[i+1]}, 0,
				PredictedSpec{TokenRate: 1e6, BucketBits: 2e5, Delay: 10})
			if err != nil {
				t.Fatal(err)
			}
			src := source.NewPoisson(source.PoissonConfig{
				FlowID: id, SizeBits: 1000, Rate: 1000,
				RNG: sim.DeriveRNG(n.Config().Seed, fmt.Sprintf("flood-%d", id)),
			})
			src.Start(n.Engine(), func(p *packet.Packet) { fl.Inject(p) })
			id++
		}
	}
	n.Run(60)
	if g.Delivered() < 9000 {
		t.Fatalf("guaranteed flow starved: %d delivered", g.Delivered())
	}
	bound := PGBoundPacketized(1000, 170000, 4, 1000, 1e6)
	if max := g.Meter().Max(); max > bound+1e-9 {
		t.Fatalf("guaranteed max %.5f exceeds packetized P-G bound %.5f under flood", max, bound)
	}
}

// Predicted priority ordering holds end to end: with identical loads, every
// high-class flow's tail delay beats every co-located low-class flow's.
func TestPredictedClassOrderingEndToEnd(t *testing.T) {
	n, names := buildChainNet(Config{Seed: 33}, 3)
	mk := func(id uint32, class uint8) *Flow {
		fl, err := n.RequestPredictedClass(id, names, class, PredictedSpec{
			TokenRate: 85000, BucketBits: 50000, Delay: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := source.NewMarkov(source.MarkovConfig{
			FlowID: id, SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5,
			RNG: sim.DeriveRNG(n.Config().Seed, fmt.Sprintf("ord-%d", id)),
		})
		src.Start(n.Engine(), func(p *packet.Packet) { fl.Inject(p) })
		return fl
	}
	var high, low []*Flow
	for i := 0; i < 5; i++ {
		high = append(high, mk(uint32(10+i), 0))
		low = append(low, mk(uint32(20+i), 1))
	}
	n.Run(300)
	for _, h := range high {
		for _, l := range low {
			if h.Meter().Percentile(0.999) >= l.Meter().Percentile(0.999) {
				t.Fatalf("high flow %d p999 %.4f >= low flow %d p999 %.4f",
					h.ID, h.Meter().Percentile(0.999), l.ID, l.Meter().Percentile(0.999))
			}
		}
	}
}

// Releasing flows mid-run frees their reservations for new requests and the
// network keeps operating.
func TestFlowChurn(t *testing.T) {
	n, names := buildChainNet(Config{Seed: 34}, 2)
	for round := 0; round < 20; round++ {
		id := uint32(1 + round)
		fl, err := n.RequestGuaranteed(id, names, GuaranteedSpec{ClockRate: 4e5})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		src := source.NewCBR(source.CBRConfig{FlowID: id, SizeBits: 1000, Rate: 100})
		stop := n.Engine().Now() + 1.0
		src.Start(n.Engine(), func(p *packet.Packet) {
			if n.Engine().Now() < stop {
				fl.Inject(p)
			}
		})
		n.Run(1.0)
		n.Run(0.5) // drain
		n.Release(id)
	}
	// A second concurrent reservation must also fit after churn.
	if _, err := n.RequestGuaranteed(900, names, GuaranteedSpec{ClockRate: 4e5}); err != nil {
		t.Fatalf("post-churn reservation failed: %v", err)
	}
	if _, err := n.RequestGuaranteed(901, names, GuaranteedSpec{ClockRate: 4e5}); err != nil {
		t.Fatalf("second post-churn reservation failed: %v", err)
	}
}

// The datagram quota is respected: even with maximal guaranteed
// reservations, a datagram flow still makes progress.
func TestDatagramSurvivesMaxReservations(t *testing.T) {
	n, names := buildChainNet(Config{Seed: 35}, 2)
	g, err := n.RequestGuaranteed(1, names, GuaranteedSpec{ClockRate: 8.9e5})
	if err != nil {
		t.Fatal(err)
	}
	// Guaranteed flow sends at its full reserved rate.
	gsrc := source.NewCBR(source.CBRConfig{FlowID: 1, SizeBits: 1000, Rate: 890})
	gsrc.Start(n.Engine(), func(p *packet.Packet) { g.Inject(p) })
	d, err := n.AddDatagramFlow(2, names)
	if err != nil {
		t.Fatal(err)
	}
	dsrc := source.NewCBR(source.CBRConfig{FlowID: 2, SizeBits: 1000, Rate: 300})
	dsrc.Start(n.Engine(), func(p *packet.Packet) { d.Inject(p) })
	n.Run(60)
	// Datagram gets the leftover ~11%: at least 80% of 110 pkt/s * 60s.
	if d.Delivered() < int64(0.8*0.11*1e3*60/10) {
		t.Fatalf("datagram starved: %d delivered", d.Delivered())
	}
}
