// Admission: Section 9 measurement-based admission control in action.
//
// Predicted-service requests arrive at random on a single link. The
// controller admits based on the measured real-time utilization ν̂ and the
// measured per-class delays d̂ⱼ — not on the declared worst case of every
// running flow — so it carries far more traffic than worst-case admission
// would while keeping the class delay targets intact.
//
// Run with: go run ./examples/admission
package main

import (
	"fmt"

	"ispn"
)

const (
	avgRate  = 85.0
	pktBits  = 1000
	seed     = 21
	duration = 600.0
)

func main() {
	target := 0.25 // per-switch class delay target, seconds
	net := ispn.New(ispn.Config{
		Profile:          ispn.Profile{ClassTargets: []float64{target}},
		AdmissionControl: true,
		Seed:             seed,
	})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.Connect("A", "B")

	rng := ispn.DeriveRNG(seed, "arrivals")
	eng := net.Engine()

	var admitted, rejected int
	var misses, delivered int64
	id := uint32(0)

	// Offer a new flow every ~10 seconds; each holds for ~60 seconds.
	var offer func()
	offer = func() {
		id++
		flowID := id
		spec := ispn.PredictedSpec{
			TokenRate:  avgRate * pktBits,
			BucketBits: 20 * pktBits,
			Delay:      target,
			Loss:       0.01,
		}
		f, err := net.RequestPredictedClass(flowID, []string{"A", "B"}, 0, spec)
		if err != nil {
			rejected++
			fmt.Printf("t=%6.1fs flow %2d REJECTED: %v\n", eng.Now(), flowID, err)
		} else {
			admitted++
			fmt.Printf("t=%6.1fs flow %2d admitted\n", eng.Now(), flowID)
			f.Tap(func(p *ispn.Packet, q float64) {
				delivered++
				if q > target {
					misses++
				}
			})
			src := ispn.NewMarkovSource(ispn.MarkovConfig{
				SizeBits: pktBits, PeakRate: 2 * avgRate, AvgRate: avgRate, Burst: 5,
				RNG: ispn.DeriveRNG(seed, fmt.Sprintf("src-%d", flowID)),
			})
			stop := eng.Now() + 30 + rng.Exp(30)
			src.Start(eng, func(p *ispn.Packet) {
				if eng.Now() < stop {
					f.Inject(p)
				}
			})
			eng.At(stop, func() {
				fmt.Printf("t=%6.1fs flow %2d departed\n", eng.Now(), flowID)
				net.Release(flowID)
			})
		}
		if eng.Now() < duration-20 {
			eng.Schedule(5+rng.Exp(5), offer)
		}
	}
	eng.Schedule(1, offer)

	net.Run(duration)

	port := net.Topology().Node("A").Port("B")
	fmt.Printf("\noffered %d, admitted %d, rejected %d\n", admitted+rejected, admitted, rejected)
	fmt.Printf("link utilization over the run: %.1f%%\n", 100*port.TotalUtilization(duration))
	missRate := 0.0
	if delivered > 0 {
		missRate = float64(misses) / float64(delivered)
	}
	fmt.Printf("delay-target misses: %d of %d delivered packets (%.4f%%)\n",
		misses, delivered, 100*missRate)
}
