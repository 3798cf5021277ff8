package sched

import (
	"math/rand"
	"testing"

	"ispn/internal/packet"
)

// Micro-benchmarks: per-operation cost of each discipline. The paper's
// constraint: the forwarding path "must be executed for every packet [so] it
// must not be so complex as to effect overall network performance"; these
// quantify the cost of FIFO+ ordered insertion and WFQ tag bookkeeping
// relative to plain FIFO.

func benchPackets(n int, class packet.Class) []*packet.Packet {
	rng := rand.New(rand.NewSource(1))
	ps := make([]*packet.Packet, n)
	for i := range ps {
		ps[i] = &packet.Packet{
			FlowID:       uint32(rng.Intn(10)),
			Seq:          uint64(i),
			Size:         1000,
			Class:        class,
			ArrivedAt:    float64(i) * 0.001,
			JitterOffset: (rng.Float64() - 0.5) * 0.01,
		}
	}
	return ps
}

// benchCycle times one enqueue (and, past 64 queued, one dequeue) per
// iteration of packets of the given class, after enough untimed cycles that
// every ring and heap has grown to its steady size. It returns the cycle
// for benchCycleNoAllocs.
func benchCycle(b *testing.B, s Scheduler, class packet.Class) (cycle func()) {
	ps := benchPackets(1024, class)
	now, i := 0.0, 0
	cycle = func() {
		now += 0.001
		s.Enqueue(ps[i%1024], now)
		i++
		if s.Len() > 64 {
			s.Dequeue(now)
		}
	}
	for k := 0; k < 4096; k++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		cycle()
	}
	return cycle
}

// benchCycleNoAllocs is benchCycle for the rate schedulers, whose steady
// state must not allocate: the benchmark fails itself if a warmed-up cycle
// does. `make bench-smoke` runs these three at 1x for this check alone.
func benchCycleNoAllocs(b *testing.B, s Scheduler, class packet.Class) {
	cycle := benchCycle(b, s, class)
	b.StopTimer()
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		b.Fatalf("a steady-state enqueue+dequeue cycle allocates %v times, want 0", a)
	}
}

func BenchmarkFIFOEnqueueDequeue(b *testing.B) { benchCycle(b, NewFIFO(), packet.Predicted) }

func BenchmarkFIFOPlusEnqueueDequeue(b *testing.B) { benchCycle(b, NewFIFOPlus(), packet.Predicted) }

func BenchmarkPriorityEnqueueDequeue(b *testing.B) {
	benchCycle(b, NewPriority([]Scheduler{NewFIFOPlus(), NewFIFOPlus(), NewFIFO()}), packet.Predicted)
}

// benchRated is benchCycleNoAllocs on a pipeline of a reserving kind whose
// benchmark flows 0–9 all hold reservations, so every packet is stamped on
// its own clocked flow.
func benchRated(b *testing.B, kind string) {
	pl := mustPipeline(Profile{Kind: kind})
	for f := uint32(0); f < 10; f++ {
		pl.AddGuaranteed(f, 9e4)
	}
	benchCycleNoAllocs(b, pl, packet.Guaranteed)
}

func BenchmarkWFQEnqueueDequeue(b *testing.B) { benchRated(b, KindWFQ) }

func BenchmarkVirtualClockEnqueueDequeue(b *testing.B) { benchRated(b, KindVirtualClock) }

func BenchmarkDRREnqueueDequeue(b *testing.B) { benchCycle(b, NewDRR(1000), packet.Predicted) }

func BenchmarkUnifiedEnqueueDequeue(b *testing.B) {
	u := mustPipeline(Profile{})
	// Flows 0-9 exist as predicted traffic via the fallback; add three
	// guaranteed reservations like a Table-3 link.
	u.AddGuaranteed(100, 1.7e5)
	u.AddGuaranteed(101, 1.7e5)
	u.AddGuaranteed(102, 0.85e5)
	benchCycleNoAllocs(b, u, packet.Predicted)
}

func BenchmarkGPSSimulate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rates := map[uint32]float64{0: 3e5, 1: 3e5, 2: 4e5}
	var arr []GPSArrival
	now := 0.0
	for i := 0; i < 500; i++ {
		now += rng.ExpFloat64() * 0.0005
		arr = append(arr, GPSArrival{Time: now, Flow: uint32(i % 3), Size: 1000})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GPSSimulate(1e6, rates, arr)
	}
}
