package scenario

import (
	"math"
	"slices"
	"testing"

	"ispn/internal/packet"
)

// wanLive is a served session's world: a WAN dumbbell with two conference
// flows and background datagrams whose bottleneck fails and comes back.
const wanLive = `
net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms])
run :: Run(seed 7, horizon 600s, trace 5s)
wan :: Dumbbell(left 3, right 3, access 10Mbps, bottleneck 1Mbps, delay 5ms)
conf1 :: Predicted(rate 85kbps, bucket 50kbit, delay 500ms, loss 1%, path wan.l1 -> wan.a -> wan.b -> wan.r1)
cam1 :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start 0.2s); cam1 -> conf1
conf2 :: Predicted(rate 85kbps, bucket 50kbit, delay 500ms, loss 1%, path wan.l2 -> wan.a -> wan.b -> wan.r2)
cam2 :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start 0.7s); cam2 -> conf2
bulk :: Datagram(path wan.l1 -> wan.a -> wan.b -> wan.r2)
hose :: Poisson(rate 40pps, size 1000bit, start 0.4s); hose -> bulk
at 230s { fail wan.a <-> wan.b }
at 262s { restore wan.a <-> wan.b }
`

// The live path reads every flow's recorder between steps, so each step's
// first read re-selects over every sample the step left in the chunks: after
// each of 64 steps, FlowReports' percentiles are sort-then-index of every
// delay so far, through the outage and its backlog.
func TestLiveFlowReportsMatchSort(t *testing.T) {
	s := mustCompile(t, wanLive, Options{})
	delays := make([][]float64, len(s.Flows))
	for i, f := range s.Flows {
		f.Flow.Tap(func(_ *packet.Packet, q float64) { delays[i] = append(delays[i], q) })
	}
	const steps = 64
	for step := 1; step <= steps; step++ {
		s.StepTo(s.Horizon * float64(step) / steps)
		for i, fr := range s.FlowReports() {
			sorted := slices.Sorted(slices.Values(delays[i]))
			for j, p := range s.Percentiles {
				want := 0.0
				if n := len(sorted); n > 0 {
					want = sorted[min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)] * 1e3
				}
				if fr.PctMS[j] != want {
					t.Fatalf("step %d, %s: %v percentile %v ms, want %v", step, fr.Name, p, fr.PctMS[j], want)
				}
			}
		}
	}
	for i, f := range s.Flows {
		if len(delays[i]) < 10_000 {
			t.Errorf("%s delivered %d packets; the test wants long recorders", f.Name, len(delays[i]))
		}
	}
}
