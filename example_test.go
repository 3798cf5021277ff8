package ispn_test

import (
	"fmt"

	"ispn"
)

// Example builds the quickstart network by hand: two switches, one
// predicted-service flow fed by the paper's bursty Markov source, and a
// short run. The a priori bound comes from the flow's class target; the
// measured delays sit far below it — the predicted-service bet.
func Example() {
	net := ispn.New(ispn.Config{
		Seed:    42,
		Profile: ispn.Profile{ClassTargets: []float64{0.100, 1.0}},
	})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.Connect("A", "B")

	flow, err := net.RequestPredicted(1, []string{"A", "B"}, ispn.PredictedSpec{
		TokenRate:  85_000,
		BucketBits: 50_000,
		Delay:      0.100,
		Loss:       0.01,
	})
	if err != nil {
		panic(err)
	}
	src := ispn.NewMarkovSource(ispn.MarkovConfig{
		SizeBits: 1000,
		PeakRate: 170,
		AvgRate:  85,
		Burst:    5,
		RNG:      ispn.DeriveRNG(42, "source"),
	})
	ispn.StartSource(net, src, flow)

	// Nine identical competitors load the link to the paper's 83.5%, so
	// the flow sees real queueing.
	for id := uint32(2); id <= 10; id++ {
		peer, err := net.RequestPredicted(id, []string{"A", "B"}, ispn.PredictedSpec{
			TokenRate: 85_000, BucketBits: 50_000, Delay: 0.100, Loss: 0.01,
		})
		if err != nil {
			panic(err)
		}
		ispn.StartSource(net, ispn.NewMarkovSource(ispn.MarkovConfig{
			SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5,
			RNG: ispn.DeriveRNG(42, fmt.Sprintf("peer-%d", id)),
		}), peer)
	}
	net.Run(60)

	fmt.Printf("class %d, a priori bound %.0f ms\n", flow.Priority, flow.Bound()*1000)
	fmt.Printf("delivered %d packets, max queueing %.1f ms\n",
		flow.Delivered(), flow.Meter().Max()*1000)
	// Output:
	// class 0, a priori bound 100 ms
	// delivered 5100 packets, max queueing 26.1 ms
}

// ExampleNetwork_RequestGuaranteed_rejection shows admission control
// refusing a guaranteed reservation that would invade the datagram quota:
// each link reserves at most 90% of its 1 Mbit/s for real-time clock rates,
// so a second 500 kbit/s circuit fits but a third cannot.
func ExampleNetwork_RequestGuaranteed_rejection() {
	net := ispn.New(ispn.Config{Seed: 1})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.Connect("A", "B")

	for id := uint32(1); id <= 3; id++ {
		_, err := net.RequestGuaranteed(id, []string{"A", "B"}, ispn.GuaranteedSpec{
			ClockRate: 500_000, BucketBits: 50_000,
		})
		if err != nil {
			fmt.Printf("flow %d rejected\n", id)
		} else {
			fmt.Printf("flow %d admitted\n", id)
		}
	}
	// Output:
	// flow 1 admitted
	// flow 2 rejected
	// flow 3 rejected
}

// ExampleLoadScenario runs a declarative scenario from source instead of
// Go: the same two-switch quickstart, written as an .ispn file (the format
// docs/SCENARIO.md specifies, and the files under scenarios/ use).
func ExampleLoadScenario() {
	src := `
# Quickstart, declaratively.
net :: Net(rate 1Mbps, targets [100ms, 1s])
run :: Run(seed 42, horizon 60s, percentiles [50%, 99%])

A, B :: Switch
A -> B

conf :: Predicted(rate 85kbps, bucket 50kbit, delay 100ms, loss 1%, path A -> B)
cam :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit)
cam -> conf

# Best-effort cross-traffic so the conference sees a loaded link.
bulk :: Datagram(path A -> B)
hose :: Poisson(rate 800pps, size 1000bit)
hose -> bulk
`
	file, err := ispn.ParseScenario("quickstart.ispn", []byte(src))
	if err != nil {
		panic(err)
	}
	sim, err := ispn.CompileScenario(file, ispn.ScenarioOptions{})
	if err != nil {
		panic(err)
	}
	report := sim.Run()

	f := report.Flows[0]
	fmt.Printf("%s: %s over %d hop, %d delivered\n", f.Name, f.Service, f.Hops, f.Delivered)
	fmt.Printf("bound %.0f ms, max %.1f ms\n", f.BoundMS, f.MaxMS)
	// Output:
	// conf: predicted/0 over 1 hop, 4980 delivered
	// bound 100 ms, max 1.0 ms
}

// ExampleParseScenario_timeline scripts a dynamic scenario: a guaranteed
// trunk arrives mid-run through admission control, a rival request is
// refused while it holds the link, and the same request succeeds after the
// trunk departs and releases its reservation.
func ExampleParseScenario_timeline() {
	src := `
net :: Net(rate 1Mbps)
run :: Run(seed 1, horizon 10s)
A, B :: Switch
A -> B

at 1s { trunk :: Guaranteed(rate 500kbps, path A -> B) }
at 2s { rival :: Guaranteed(rate 500kbps, path A -> B) }
at 3s { remove trunk }
at 4s { late :: Guaranteed(rate 500kbps, path A -> B) }
`
	file, err := ispn.ParseScenario("timeline.ispn", []byte(src))
	if err != nil {
		panic(err)
	}
	sim, err := ispn.CompileScenario(file, ispn.ScenarioOptions{})
	if err != nil {
		panic(err)
	}
	report := sim.Run()

	for _, f := range report.Flows {
		state := "admitted"
		if f.Rejected {
			state = "rejected"
		} else if f.Departed {
			state = "departed"
		}
		fmt.Printf("%s at %.0fs: %s\n", f.Name, f.ArriveS, state)
	}
	a := report.Admission
	fmt.Printf("%d requested, %d admitted, %d rejected, %d departed\n",
		a.Requested, a.Admitted, a.Rejected, a.Departed)
	// Output:
	// trunk at 1s: departed
	// rival at 2s: rejected
	// late at 4s: admitted
	// 3 requested, 2 admitted, 1 rejected, 1 departed
}
