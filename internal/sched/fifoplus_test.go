package sched

import (
	"math"
	"testing"
)

func TestFIFOPlusDegeneratestoFIFOWithZeroOffsets(t *testing.T) {
	// With no upstream offsets, expected arrival == actual arrival, so
	// FIFO+ must serve in plain FIFO order.
	f := NewFIFOPlus()
	for i := uint64(0); i < 10; i++ {
		p := pkt(1, i, 1000)
		p.ArrivedAt = float64(i) * 0.001
		f.Enqueue(p, p.ArrivedAt)
	}
	for i := uint64(0); i < 10; i++ {
		if got := f.Dequeue(0.02); got.Seq != i {
			t.Fatalf("Dequeue seq %d, want %d", got.Seq, i)
		}
	}
}

func TestFIFOPlusOrdersByExpectedArrival(t *testing.T) {
	f := NewFIFOPlus()
	// Packet A arrived first but had below-average delays upstream
	// (negative offset): it is expected later.
	a := pkt(1, 1, 1000)
	a.ArrivedAt = 1.000
	a.JitterOffset = -0.050 // lucky upstream: expected at 1.050
	// Packet B arrived second but was unlucky upstream.
	b := pkt(2, 2, 1000)
	b.ArrivedAt = 1.010
	b.JitterOffset = +0.040 // unlucky: expected at 0.970
	f.Enqueue(a, a.ArrivedAt)
	f.Enqueue(b, b.ArrivedAt)
	if got := f.Dequeue(1.02); got.Seq != 2 {
		t.Fatal("FIFO+ should serve the upstream-delayed packet first")
	}
	if got := f.Dequeue(1.02); got.Seq != 1 {
		t.Fatal("second dequeue should be the lucky packet")
	}
}

func TestFIFOPlusFirstPacketGetsZeroDeviation(t *testing.T) {
	f := NewFIFOPlus()
	p := pkt(1, 0, 1000)
	p.ArrivedAt = 1.0
	f.Enqueue(p, 1.0)
	out := f.Dequeue(1.5) // waited 0.5s; the first packet defines the average
	if math.Abs(out.JitterOffset) > 1e-12 {
		t.Fatalf("first packet offset = %v, want 0", out.JitterOffset)
	}
	if math.Abs(f.avg.Value()-0.5) > 1e-12 {
		t.Fatalf("class average = %v, want 0.5", f.avg.Value())
	}
}

func TestFIFOPlusOffsetAccumulates(t *testing.T) {
	f := NewFIFOPlus()
	f.avg.Init(1) // gain 1: average tracks the last delay exactly
	// First packet establishes average 0.1.
	p1 := pkt(1, 1, 1000)
	p1.ArrivedAt = 0
	f.Enqueue(p1, 0)
	f.Dequeue(0.1)
	// Second packet waits 0.3: deviation +0.2 against the average 0.1.
	p2 := pkt(1, 2, 1000)
	p2.ArrivedAt = 1.0
	p2.JitterOffset = 0.05 // carried from upstream
	f.Enqueue(p2, 1.0)
	out := f.Dequeue(1.3)
	want := 0.05 + (0.3 - 0.1)
	if math.Abs(out.JitterOffset-want) > 1e-12 {
		t.Fatalf("offset = %v, want %v", out.JitterOffset, want)
	}
}

func TestFIFOPlusNegativeDeviationReducesOffset(t *testing.T) {
	f := NewFIFOPlus()
	f.avg.Init(1)
	p1 := pkt(1, 1, 1000)
	p1.ArrivedAt = 0
	f.Enqueue(p1, 0)
	f.Dequeue(0.4) // average = 0.4
	p2 := pkt(1, 2, 1000)
	p2.ArrivedAt = 1
	f.Enqueue(p2, 1)
	out := f.Dequeue(1.0) // zero delay, deviation -0.4
	if math.Abs(out.JitterOffset-(-0.4)) > 1e-12 {
		t.Fatalf("offset = %v, want -0.4", out.JitterOffset)
	}
}

func TestFIFOPlusZeroDelayClamped(t *testing.T) {
	f := NewFIFOPlus()
	p := pkt(1, 0, 1000)
	p.ArrivedAt = 5.0
	f.Enqueue(p, 5.0)
	// Dequeue at a time before ArrivedAt can happen only through clock
	// skew bugs; delay must clamp at 0 rather than go negative.
	out := f.Dequeue(4.0)
	if out.JitterOffset != 0 {
		t.Fatalf("offset = %v, want 0", out.JitterOffset)
	}
}

func TestFIFOPlusEmpty(t *testing.T) {
	f := NewFIFOPlus()
	if f.Dequeue(0) != nil || f.Len() != 0 {
		t.Fatal("empty FIFO+ misbehaves")
	}
}

func TestFIFOPlusRecentMaxDelay(t *testing.T) {
	f := NewFIFOPlus()
	p := pkt(1, 0, 1000)
	p.ArrivedAt = 0
	f.Enqueue(p, 0)
	f.Dequeue(0.25)
	if got := f.RecentMaxDelay(0.25); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("RecentMaxDelay = %v, want 0.25", got)
	}
}

// The headline property (paper Table 2): on a multi-hop path, FIFO+ reduces
// tail jitter versus plain FIFO. This is a focused two-hop version: flows
// share hop 1, and at hop 2 the packets that were delayed at hop 1 catch up
// because FIFO+ lets them jump ahead of luckier packets.
func TestFIFOPlusTwoHopJitterReduction(t *testing.T) {
	// Synthetic scenario: at hop 1, packets alternate between 0 delay and
	// a large delay (deviation ±d). At hop 2 all packets arrive clumped.
	// Under FIFO, hop-2 order is arrival order, so the hop-1 delay
	// spread is preserved. Under FIFO+, unlucky packets are served first
	// and total delays even out.
	mkStream := func() []arrival {
		var arr []arrival
		for i := 0; i < 40; i++ {
			p := pkt(uint32(i%2), uint64(i), 1000)
			// Hop-1 delays: even packets 0, odd packets +8ms,
			// already reflected in both the arrival time and the
			// offset field (as a hop-1 FIFO+ would have done).
			base := float64(i/2) * 0.002
			if i%2 == 1 {
				p.JitterOffset = 0.004 // 4ms above class average
				arr = append(arr, arrival{t: base + 0.008, p: p})
			} else {
				p.JitterOffset = -0.004
				arr = append(arr, arrival{t: base, p: p})
			}
		}
		// Harness requires sorted arrivals.
		for i := 1; i < len(arr); i++ {
			for j := i; j > 0 && arr[j].t < arr[j-1].t; j-- {
				arr[j], arr[j-1] = arr[j-1], arr[j]
			}
		}
		return arr
	}

	spread := func(out []delivery, offsets bool) float64 {
		// total delay proxy: finish - (arrival - carried offset):
		// measures end-to-end inequity when offsets encode hop-1
		// deviation.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, d := range out {
			v := d.finish - d.p.ExpectedArrival()
			if !offsets {
				v = d.finish - d.p.ArrivedAt
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	_ = spread

	outFIFO := runLink(NewFIFO(), 1e6, mkStream())
	outPlus := runLink(NewFIFOPlus(), 1e6, mkStream())

	// Compare end-to-end-style spread: deviation-corrected completion.
	sFIFO := spread(outFIFO, true)
	sPlus := spread(outPlus, true)
	if sPlus >= sFIFO {
		t.Fatalf("FIFO+ spread %v >= FIFO spread %v; FIFO+ should equalize", sPlus, sFIFO)
	}
}
