package scenario

import (
	"os"
	"runtime"
	"testing"
)

// wanDumbbell is session 0 of the served benchmark workload at seed 1992: a
// WAN dumbbell, every link 5 ms, two policed conferences and a datagram
// hose over a 1 Mbit/s bottleneck, and an outage that TestEventsPerHop's
// first minute does not reach.
const wanDumbbell = `net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms])
run :: Run(seed 1992, horizon 600s, trace 5s)
wan :: Dumbbell(left 3, right 3, access 10Mbps, bottleneck 1Mbps, delay 5ms)
conf1 :: Predicted(rate 85kbps, bucket 50kbit, delay 500ms, loss 1%, path wan.l1 -> wan.a -> wan.b -> wan.r1)
cam1 :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start 759ms); cam1 -> conf1
conf2 :: Predicted(rate 85kbps, bucket 50kbit, delay 500ms, loss 1%, path wan.l2 -> wan.a -> wan.b -> wan.r2)
cam2 :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start 423ms); cam2 -> conf2
bulk :: Datagram(path wan.l1 -> wan.a -> wan.b -> wan.r2)
hose :: Poisson(rate 40pps, size 1000bit, start 76ms); hose -> bulk
at 218s { fail wan.a <-> wan.b }
at 272s { restore wan.a <-> wan.b }
`

// runCost runs a scenario text to its horizon and returns the events the
// engine fired and the packet-hops (transmissions, summed over every port).
func runCost(t *testing.T, src string, horizon float64) (events uint64, hops int64) {
	t.Helper()
	s := mustCompile(t, src, Options{Horizon: horizon})
	s.Run()
	for _, pt := range s.Net.Topology().Ports() {
		hops += pt.TxPackets()
	}
	return s.Net.Engine().Processed(), hops
}

// TestEventsPerHop gates the engine work per packet-hop, a cost that repeats
// exactly from run to run. On a delayed link a hop is one event, the
// delivery; the wire-free instant is an event only when a packet is queued
// behind the one on the wire (the dumbbell fires 1.39 events per hop; with
// every wire-free instant an event it fired 2.34). A zero-delay link keeps
// one transmit-complete event per hop, so figure1's chain, 1.563 events per
// hop, pins the whole count.
func TestEventsPerHop(t *testing.T) {
	events, hops := runCost(t, wanDumbbell, 60)
	if per := float64(events) / float64(hops); per > 1.45 {
		t.Errorf("WAN dumbbell: %d events for %d packet-hops, %.3f per hop; want at most 1.45", events, hops, per)
	}
	src, err := os.ReadFile("../../scenarios/figure1.ispn")
	if err != nil {
		t.Fatal(err)
	}
	events, hops = runCost(t, string(src), 0)
	if events != 622919 {
		t.Errorf("figure1: %d events for %d packet-hops, want 622919", events, hops)
	}
}

// TestDumbbellBytesPerPacket gates the bytes the WAN dumbbell's whole run —
// 600 s, its outage included — allocates per delivered packet, a count that
// repeats from run to run. About 86 % of its packets wait nowhere, and the
// flows' recorders count those delays in runs instead of storing each:
// 2.35 B per packet, against 9.27 B while every delay took 8 B of chunk.
// The count reads the whole process's allocations, so a stray runtime
// object may land in it: the run is repeated, up to three times, and passes
// if one count is under the ceiling.
func TestDumbbellBytesPerPacket(t *testing.T) {
	const ceiling, attempts = 4.0, 3
	var per float64
	for range attempts {
		if per = dumbbellBytesPerPacket(t); per <= ceiling {
			return
		}
	}
	t.Errorf("WAN dumbbell: %.2f B allocated per delivered packet in each of %d runs, want at most %.2f",
		per, attempts, ceiling)
}

// dumbbellBytesPerPacket compiles the WAN dumbbell, runs it to its horizon
// and returns the bytes the run allocated per packet its flows delivered.
func dumbbellBytesPerPacket(t *testing.T) float64 {
	s := mustCompile(t, wanDumbbell, Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run()
	runtime.ReadMemStats(&after)
	var delivered int64
	for _, f := range s.Flows {
		delivered += f.Flow.Delivered()
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(delivered)
}
