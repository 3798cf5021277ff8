package ispn_test

import (
	"math"
	"testing"

	"ispn"
)

// These tests exercise the library exactly as a downstream user would:
// through the public facade only.

func TestFacadeQuickstart(t *testing.T) {
	net := ispn.New(ispn.Config{Seed: 5})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.Connect("A", "B")
	flow, err := net.RequestPredicted(1, []string{"A", "B"}, ispn.PredictedSpec{
		TokenRate: 85_000, BucketBits: 50_000, Delay: 0.1, Loss: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := ispn.NewMarkovSource(ispn.MarkovConfig{
		FlowID: 1, SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5,
		RNG: ispn.DeriveRNG(5, "src"),
	})
	ispn.StartSource(net, src, flow)
	net.Run(30)
	if flow.Delivered() < 2000 {
		t.Fatalf("delivered %d, want thousands", flow.Delivered())
	}
	if flow.Meter().Mean() <= 0 {
		t.Fatal("no delay measured")
	}
}

func TestFacadeGuaranteedWithCrossTraffic(t *testing.T) {
	net := ispn.New(ispn.Config{Seed: 6})
	for _, s := range []string{"A", "B", "C"} {
		net.AddSwitch(s)
	}
	net.Connect("A", "B")
	net.Connect("B", "C")
	path := []string{"A", "B", "C"}
	g, err := net.RequestGuaranteed(1, path, ispn.GuaranteedSpec{ClockRate: 170_000, BucketBits: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cbr := ispn.NewCBRSource(ispn.CBRConfig{FlowID: 1, SizeBits: 1000, Rate: 170})
	ispn.StartSource(net, cbr, g)
	// Cross traffic from a Poisson datagram flow.
	d, err := net.AddDatagramFlow(2, path)
	if err != nil {
		t.Fatal(err)
	}
	poi := ispn.NewPoissonSource(ispn.PoissonConfig{FlowID: 2, SizeBits: 1000, Rate: 700,
		RNG: ispn.DeriveRNG(6, "poisson")})
	ispn.StartSource(net, poi, d)
	net.Run(60)
	bound := ispn.PGBoundPacketized(1000, 170_000, 2, 1000, 1e6)
	if max := g.Meter().Max(); max > bound+1e-9 {
		t.Fatalf("guaranteed max %.4f exceeds bound %.4f", max, bound)
	}
	if g.Bound() != ispn.PGBound(1000, 170_000, 2, 1000) {
		t.Fatal("advertised bound mismatch")
	}
}

func TestFacadeTCP(t *testing.T) {
	net := ispn.New(ispn.Config{Seed: 7})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.ConnectDuplex("A", "B")
	conn := ispn.NewTCP(net, ispn.TCPConfig{
		DataFlowID: 10, AckFlowID: 11,
		Path: []string{"A", "B"}, ReversePath: []string{"B", "A"},
	})
	conn.Start()
	net.Run(20)
	if conn.ThroughputBits(20) < 0.8e6 {
		t.Fatalf("TCP throughput %.0f too low on idle link", conn.ThroughputBits(20))
	}
}

func TestFacadePlaybackClients(t *testing.T) {
	rigid := ispn.NewRigidClient(0.05)
	adaptive := ispn.NewAdaptiveClient(ispn.AdaptiveConfig{InitialPoint: 0.05})
	for i := 0; i < 1000; i++ {
		rigid.Deliver(0, 0.001)
		adaptive.Deliver(0, 0.001)
	}
	if rigid.Point() != 0.05 {
		t.Fatal("rigid point moved")
	}
	if adaptive.Point() >= 0.05 {
		t.Fatal("adaptive point did not move down")
	}
}

func TestFacadePolicedSource(t *testing.T) {
	net := ispn.New(ispn.Config{Seed: 8})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.Connect("A", "B")
	g, err := net.RequestGuaranteed(1, []string{"A", "B"}, ispn.GuaranteedSpec{ClockRate: 170_000})
	if err != nil {
		t.Fatal(err)
	}
	src := ispn.NewPolicedSource(ispn.NewMarkovSource(ispn.MarkovConfig{
		FlowID: 1, SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5,
		RNG: ispn.DeriveRNG(8, "src"),
	}), 85, 50)
	ispn.StartSource(net, src, g)
	net.Run(120)
	if src.Stats().Dropped == 0 {
		t.Fatal("policer never dropped over 120s of bursty traffic")
	}
	if g.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestFacadePGBoundValues(t *testing.T) {
	// The paper's Guaranteed-Average 1-hop bound: 588.24 ms.
	got := ispn.PGBound(50_000, 85_000, 1, 1000) * 1000
	if math.Abs(got-588.24) > 0.01 {
		t.Fatalf("PGBound = %.2f ms, want 588.24", got)
	}
}

// TestFacadeBadPathIsAnError: every request form refuses a path through an
// unknown switch or over a missing link with an error, and the network then
// serves a good request as if the bad ones never came.
func TestFacadeBadPathIsAnError(t *testing.T) {
	net := ispn.New(ispn.Config{Seed: 9})
	for _, s := range []string{"A", "B", "C"} {
		net.AddSwitch(s)
	}
	net.Connect("A", "B")
	g := ispn.GuaranteedSpec{ClockRate: 100_000}
	p := ispn.PredictedSpec{TokenRate: 85_000, BucketBits: 50_000, Delay: 1}
	forms := map[string]func(path []string) error{
		"RequestGuaranteed": func(path []string) error {
			_, err := net.RequestGuaranteed(1, path, g)
			return err
		},
		"RequestPredicted": func(path []string) error {
			_, err := net.RequestPredicted(1, path, p)
			return err
		},
		"RequestPredictedClass": func(path []string) error {
			_, err := net.RequestPredictedClass(1, path, 0, p)
			return err
		},
		"RequestPredictedMember": func(path []string) error {
			_, err := net.RequestPredictedMember(path, 0, p)
			return err
		},
	}
	for name, request := range forms {
		for _, path := range [][]string{{"A", "nope"}, {"nope", "A"}, {"B", "A"}, {"A", "C"}} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%v) panicked: %v", name, path, r)
					}
				}()
				if err := request(path); err == nil {
					t.Errorf("%s(%v) succeeded, want an error", name, path)
				}
			}()
		}
	}
	if len(net.Flows()) != 0 {
		t.Fatalf("bad paths left %d flows behind", len(net.Flows()))
	}
	if _, err := net.RequestPredictedMember([]string{"A", "B"}, 0, p); err != nil {
		t.Fatal(err)
	}
}
