// Quickstart: a two-switch network carrying one predicted-service flow.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"ispn"
)

func main() {
	// A network whose links run the paper's unified scheduler
	// (defaults: 1 Mbit/s links, 2 predicted classes, 200-packet
	// buffers).
	net := ispn.New(ispn.Config{
		Seed: 42,
		// Per-switch a priori delay targets of the two predicted
		// classes: 100 ms and 1 s.
		Profile: ispn.Profile{ClassTargets: []float64{0.100, 1.0}},
	})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.Connect("A", "B")

	// Request predicted service: the flow commits to an (85 kbit/s,
	// 50 kbit) token bucket — enforced at the network edge — and asks
	// for a 100 ms delay target with 1% tolerable loss.
	flow, err := net.RequestPredicted(1, []string{"A", "B"}, ispn.PredictedSpec{
		TokenRate:  85_000,
		BucketBits: 50_000,
		Delay:      0.100,
		Loss:       0.01,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("admitted into class %d, advertised a priori bound %.0f ms\n",
		flow.Priority, flow.Bound()*1000)

	// Attach the paper's bursty two-state Markov source (85 pkt/s
	// average, bursts of 5 at twice the average rate).
	src := ispn.NewMarkovSource(ispn.MarkovConfig{
		FlowID:   1,
		SizeBits: 1000,
		PeakRate: 170,
		AvgRate:  85,
		Burst:    5,
		RNG:      ispn.DeriveRNG(42, "source"),
	})
	ispn.StartSource(net, src, flow)

	// Nine identical competitors share the link (the paper's Table-1
	// load, 83.5% utilization), so the flow experiences real queueing.
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

	// Ten simulated minutes.
	net.Run(600)

	m := flow.Meter()
	fmt.Printf("delivered %d packets (%d dropped at the edge policer)\n",
		flow.Delivered(), flow.PolicerStats().Dropped)
	fmt.Printf("queueing delay: mean %.2f ms, 99.9%%ile %.2f ms, max %.2f ms\n",
		m.Mean()*1000, m.Percentile(0.999)*1000, m.Max()*1000)
	fmt.Printf("the post-facto bound an adaptive client would see (%.2f ms) sits far below the a priori bound (%.0f ms)\n",
		m.Percentile(0.999)*1000, flow.Bound()*1000)
}
