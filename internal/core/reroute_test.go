package core

import (
	"reflect"
	"strings"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/source"
)

// diamondNet builds S1 -> S2 -> S3 (primary) with a detour S1 -> B -> S3.
// detourProf, when non-nil, puts a custom pipeline on both detour hops.
func diamondNet(cfg Config, detourProf *sched.Profile) *Network {
	n := New(cfg)
	for _, s := range []string{"S1", "S2", "S3", "B"} {
		n.AddSwitch(s)
	}
	n.Connect("S1", "S2")
	n.Connect("S2", "S3")
	for _, pr := range [][2]string{{"S1", "B"}, {"B", "S3"}} {
		if _, err := n.ConnectWith(pr[0], pr[1], cfg.LinkRate, 0, detourProf); err != nil {
			panic(err)
		}
	}
	return n
}

func TestAutoRerouteMovesGuaranteedFlow(t *testing.T) {
	// S1 -> S2 -> S3 primary, S1 -> B -> B2 -> S3 detour (one hop longer,
	// so the recomputed PG bound must grow by one packetization term).
	n := New(Config{LinkRate: 1e6})
	for _, s := range []string{"S1", "S2", "S3", "B", "B2"} {
		n.AddSwitch(s)
	}
	for _, pr := range [][2]string{{"S1", "S2"}, {"S2", "S3"}, {"S1", "B"}, {"B", "B2"}, {"B2", "S3"}} {
		n.Connect(pr[0], pr[1])
	}
	if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
		t.Fatal(err)
	}
	spec := GuaranteedSpec{ClockRate: 1e5, BucketBits: 5e4}
	f, err := n.RequestGuaranteed(1, []string{"S1", "S2", "S3"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	oldBound := f.Bound()
	if err := n.FailLink("S1", "S2"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"S1", "B", "B2", "S3"}; !reflect.DeepEqual(f.Path(), want) {
		t.Fatalf("path after failure %v, want %v", f.Path(), want)
	}
	if f.Rerouted() != 1 || f.RerouteRefused() != 0 {
		t.Fatalf("counters rerouted=%d refused=%d, want 1/0", f.Rerouted(), f.RerouteRefused())
	}
	// Reservations moved: the old surviving hop S2->S3 released its clock
	// rate, every detour hop holds it.
	if res := n.topo.Node("S2").Port("S3").Pipeline().Reserved(); res != 0 {
		t.Fatalf("old hop still reserves %v bits/s", res)
	}
	for _, pr := range [][2]string{{"S1", "B"}, {"B", "B2"}, {"B2", "S3"}} {
		if res := n.topo.Node(pr[0]).Port(pr[1]).Pipeline().Reserved(); res != spec.ClockRate {
			t.Fatalf("detour hop %s->%s reserves %v, want %v", pr[0], pr[1], res, spec.ClockRate)
		}
	}
	// The bound tracks the new, longer path: one extra hop adds one
	// max-packet packetization term (1000 bits at the clock rate).
	if want := oldBound + 1000/spec.ClockRate; f.Bound() != want {
		t.Fatalf("bound %v after reroute, want %v", f.Bound(), want)
	}
	// Traffic injected after the failure is delivered over the detour.
	src := source.NewCBR(source.CBRConfig{SizeBits: 1000, Rate: 100, RNG: sim.DeriveRNG(n.Config().Seed, "src")})
	source.AttachPool(src, n.Pool())
	src.Start(n.Engine(), func(p *packet.Packet) { f.Inject(p) })
	n.Run(2)
	if f.Delivered() == 0 {
		t.Fatal("no packets delivered after reroute")
	}
}

func TestRerouteRefusedWithoutAlternatePath(t *testing.T) {
	n := New(Config{})
	n.AddSwitch("S1")
	n.AddSwitch("S2")
	n.Connect("S1", "S2")
	if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
		t.Fatal(err)
	}
	f, err := n.RequestPredictedClass(1, []string{"S1", "S2"}, 0, PredictedSpec{TokenRate: 1e5, BucketBits: 1e4, Delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink("S1", "S2"); err != nil {
		t.Fatal(err)
	}
	if f.Rerouted() != 0 || f.RerouteRefused() != 1 {
		t.Fatalf("counters rerouted=%d refused=%d, want 0/1", f.Rerouted(), f.RerouteRefused())
	}
	if want := []string{"S1", "S2"}; !reflect.DeepEqual(f.Path(), want) {
		t.Fatalf("refused flow's path changed to %v", f.Path())
	}
	if r, x := n.RerouteTotals(); r != 0 || x != 1 {
		t.Fatalf("network totals %d/%d, want 0/1", r, x)
	}
}

func TestGuaranteedRerouteRefusedAtFIFOHop(t *testing.T) {
	// The detour runs plain FIFO pipelines: they cannot reserve clock
	// rates, so a guaranteed flow must be refused and keep its old path
	// and reservations (ready for a restore).
	fifo := sched.Profile{Kind: sched.KindFIFO}
	n := diamondNet(Config{LinkRate: 1e6}, &fifo)
	if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
		t.Fatal(err)
	}
	spec := GuaranteedSpec{ClockRate: 1e5, BucketBits: 5e4}
	f, err := n.RequestGuaranteed(1, []string{"S1", "S2", "S3"}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink("S1", "S2"); err != nil {
		t.Fatal(err)
	}
	if f.Rerouted() != 0 || f.RerouteRefused() != 1 {
		t.Fatalf("counters rerouted=%d refused=%d, want 0/1", f.Rerouted(), f.RerouteRefused())
	}
	if want := []string{"S1", "S2", "S3"}; !reflect.DeepEqual(f.Path(), want) {
		t.Fatalf("refused flow moved to %v", f.Path())
	}
	// Old reservations intact on both old hops.
	for _, pr := range [][2]string{{"S1", "S2"}, {"S2", "S3"}} {
		if res := n.topo.Node(pr[0]).Port(pr[1]).Pipeline().Reserved(); res != spec.ClockRate {
			t.Fatalf("old hop %s->%s reserves %v after refusal, want %v", pr[0], pr[1], res, spec.ClockRate)
		}
	}
	// After restore, the flow delivers again without any reroute.
	if err := n.RestoreLink("S1", "S2"); err != nil {
		t.Fatal(err)
	}
	src := source.NewCBR(source.CBRConfig{SizeBits: 1000, Rate: 100, RNG: sim.DeriveRNG(n.Config().Seed, "src")})
	source.AttachPool(src, n.Pool())
	src.Start(n.Engine(), func(p *packet.Packet) { f.Inject(p) })
	n.Run(2)
	if f.Delivered() == 0 {
		t.Fatal("restored flow delivered nothing")
	}
}

func TestRerouteMovesLedgerClaims(t *testing.T) {
	n := diamondNet(Config{LinkRate: 1e6, AdmissionControl: true}, nil)
	if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
		t.Fatal(err)
	}
	f, err := n.RequestPredictedClass(1, []string{"S1", "S2", "S3"}, 1, PredictedSpec{TokenRate: 2e5, BucketBits: 1e4, Delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	now := n.Engine().Now()
	oldHop := n.topo.Node("S2").Port("S3")
	newHop := n.topo.Node("S1").Port("B")
	if nu := n.controller(oldHop).Utilization(now); nu != 2e5 {
		t.Fatalf("declared rate not in old hop's ledger: ν̂ = %v", nu)
	}
	if err := n.FailLink("S1", "S2"); err != nil {
		t.Fatal(err)
	}
	now = n.Engine().Now()
	if nu := n.controller(oldHop).Utilization(now); nu != 0 {
		t.Fatalf("old hop still carries the ledger claim after reroute: ν̂ = %v", nu)
	}
	if nu := n.controller(newHop).Utilization(now); nu != 2e5 {
		t.Fatalf("new hop missing the ledger claim: ν̂ = %v", nu)
	}
	// Releasing the flow after the reroute frees the new-path claims too.
	n.Release(f.ID)
	if nu := n.controller(newHop).Utilization(now); nu != 0 {
		t.Fatalf("release left ν̂ = %v on the new hop", nu)
	}
}

func TestRerouteRefusalRollsBackLedger(t *testing.T) {
	// Admission on, and the second detour hop is FIFO: the guaranteed
	// reroute admits at S1->B, then is refused at B->S3, and must roll
	// the S1->B ledger entry back.
	n := New(Config{LinkRate: 1e6, AdmissionControl: true})
	for _, s := range []string{"S1", "S2", "S3", "B"} {
		n.AddSwitch(s)
	}
	n.Connect("S1", "S2")
	n.Connect("S2", "S3")
	n.Connect("S1", "B")
	fifo := sched.Profile{Kind: sched.KindFIFO}
	if _, err := n.ConnectWith("B", "S3", 1e6, 0, &fifo); err != nil {
		t.Fatal(err)
	}
	if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
		t.Fatal(err)
	}
	f, err := n.RequestGuaranteed(1, []string{"S1", "S2", "S3"}, GuaranteedSpec{ClockRate: 1e5, BucketBits: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink("S1", "S2"); err != nil {
		t.Fatal(err)
	}
	if f.RerouteRefused() != 1 {
		t.Fatalf("refused = %d, want 1", f.RerouteRefused())
	}
	now := n.Engine().Now()
	if nu := n.controller(n.topo.Node("S1").Port("B")).Utilization(now); nu != 0 {
		t.Fatalf("refused reroute leaked a ledger entry at S1->B: ν̂ = %v", nu)
	}
	if res := n.topo.Node("S1").Port("B").Pipeline().Reserved(); res != 0 {
		t.Fatalf("refused reroute leaked a reservation at S1->B: %v", res)
	}
}

func TestSetRoutingValidates(t *testing.T) {
	n := New(Config{})
	if err := n.SetRouting(RoutingConfig{Cost: "vibes"}); err == nil ||
		!strings.Contains(err.Error(), "unknown cost") {
		t.Fatalf("bad cost accepted: %v", err)
	}
	rc := n.Routing()
	if rc.Cost != "hops" || rc.Auto {
		t.Fatalf("defaults wrong: %+v", rc)
	}
}

func TestRerouteDeterministicAcrossRuns(t *testing.T) {
	// Two identical runs with a failure and auto reroute must land every
	// flow on identical paths with identical counters.
	run := func() ([][]string, int64, int64) {
		n := diamondNet(Config{LinkRate: 1e6, AdmissionControl: true}, nil)
		if err := n.SetRouting(RoutingConfig{Auto: true, Cost: "delay"}); err != nil {
			t.Fatal(err)
		}
		var flows []*Flow
		for id := uint32(1); id <= 3; id++ {
			f, err := n.RequestPredictedClass(id, []string{"S1", "S2", "S3"}, 1,
				PredictedSpec{TokenRate: 5e4, BucketBits: 1e4, Delay: 1})
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, f)
		}
		n.Engine().AtControl(1.0, func() { _ = n.FailLink("S1", "S2") })
		n.Run(2)
		var paths [][]string
		for _, f := range flows {
			paths = append(paths, append([]string(nil), f.Path()...))
		}
		r, x := n.RerouteTotals()
		return paths, r, x
	}
	p1, r1, x1 := run()
	p2, r2, x2 := run()
	if !reflect.DeepEqual(p1, p2) || r1 != r2 || x1 != x2 {
		t.Fatalf("nondeterministic reroute: %v (%d/%d) vs %v (%d/%d)", p1, r1, x1, p2, r2, x2)
	}
}

// TestRerouteOrderDecidesTheDetour pins the sweep's order when it decides an
// admission: two guaranteed flows cross the failed link and the detour's
// reservation quota has room for one of them, so the flow first in flow-id
// order gets it and the other is refused — whichever was created first.
// Each trial uses fresh ids, so a sweep in any other order (a map range)
// would fail some trial.
func TestRerouteOrderDecidesTheDetour(t *testing.T) {
	const trials = 32
	spec := GuaranteedSpec{ClockRate: 3e5, BucketBits: 1e4}
	primary, detour := []string{"S1", "S2", "S3"}, []string{"S1", "B", "S3"}
	for trial := 0; trial < trials; trial++ {
		n := New(Config{LinkRate: 1e6})
		for _, s := range []string{"S1", "S2", "S3", "B"} {
			n.AddSwitch(s)
		}
		n.Connect("S1", "S2")
		n.Connect("S2", "S3")
		// Half the primary's rate: one 3e5 reservation fits under the
		// detour's quota, two do not.
		for _, pr := range [][2]string{{"S1", "B"}, {"B", "S3"}} {
			if _, err := n.ConnectWith(pr[0], pr[1], 5e5, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
			t.Fatal(err)
		}
		low, high := uint32(1+trial), uint32(1000-7*trial)
		ids := []uint32{low, high}
		if trial%2 == 1 {
			ids = []uint32{high, low} // creation order against id order
		}
		flows := make(map[uint32]*Flow)
		for _, id := range ids {
			f, err := n.RequestGuaranteed(id, primary, spec)
			if err != nil {
				t.Fatal(err)
			}
			flows[id] = f
		}
		if err := n.FailLink("S1", "S2"); err != nil {
			t.Fatal(err)
		}
		won, lost := flows[low], flows[high]
		if !reflect.DeepEqual(won.Path(), detour) || won.Rerouted() != 1 || won.RerouteRefused() != 0 {
			t.Fatalf("trial %d: flow %d (first by id) on %v, rerouted %d, refused %d; want the detour",
				trial, low, won.Path(), won.Rerouted(), won.RerouteRefused())
		}
		if !reflect.DeepEqual(lost.Path(), primary) || lost.Rerouted() != 0 || lost.RerouteRefused() != 1 {
			t.Fatalf("trial %d: flow %d (second by id) on %v, rerouted %d, refused %d; want it refused on the old path",
				trial, high, lost.Path(), lost.Rerouted(), lost.RerouteRefused())
		}
	}
}

// TestRerouteSplitsPacketsInFlight: a reroute changes the flow's route in
// place, so where a packet is when the link fails decides its fate. S0 -> S1
// is fast and S1 is where the old path (via S2) and the detour (via B)
// diverge. When S2 -> S3 fails, packets still upstream of S1 take the detour
// from there and are delivered; packets already queued on the abandoned
// branch S1 -> S2 keep going the old way and are dropped at the failed port;
// the one S2 -> S3 was serializing still arrives.
func TestRerouteSplitsPacketsInFlight(t *testing.T) {
	n := New(Config{LinkRate: 1e6})
	for _, s := range []string{"S0", "S1", "S2", "S3", "B"} {
		n.AddSwitch(s)
	}
	if _, err := n.ConnectWith("S0", "S1", 10e6, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, pr := range [][2]string{{"S1", "S2"}, {"S2", "S3"}, {"S1", "B"}, {"B", "S3"}} {
		n.Connect(pr[0], pr[1])
	}
	if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
		t.Fatal(err)
	}
	f, err := n.AddDatagramFlow(1, []string{"S0", "S1", "S2", "S3"})
	if err != nil {
		t.Fatal(err)
	}
	inject := func(k int) {
		for i := 0; i < k; i++ {
			p := n.Pool().Get()
			p.Size = 1000
			f.Inject(p)
		}
	}
	// 0.1 ms per packet into S1, 1 ms per packet out of it: at 1.5 ms the
	// first packet is on the wire S2 -> S3, the second on S1 -> S2 with the
	// third and fourth queued behind it.
	inject(4)
	n.Run(0.00145)
	inject(2) // one on the wire S0 -> S1, one queued behind it
	n.Run(0.00005)
	if err := n.FailLink("S2", "S3"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"S0", "S1", "B", "S3"}; !reflect.DeepEqual(f.Path(), want) {
		t.Fatalf("path after failure %v, want %v", f.Path(), want)
	}
	n.Run(1)
	failed, detour := n.topo.Node("S2").Port("S3"), n.topo.Node("S1").Port("B")
	if f.Delivered() != 3 || detour.TxPackets() != 2 || failed.Counter().Dropped != 3 {
		t.Fatalf("delivered %d (want 3: one ahead of the failure, two over the detour), %d over the detour (want 2), %d dropped at the failed port (want 3)",
			f.Delivered(), detour.TxPackets(), failed.Counter().Dropped)
	}
	if gets, puts, _ := n.Pool().Stats(); gets != puts {
		t.Fatalf("pool: %d gets, %d puts", gets, puts)
	}
}
