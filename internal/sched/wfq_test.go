package sched

import (
	"math"
	"math/rand"
	"testing"
)

func TestWFQSingleFlowIsFIFO(t *testing.T) {
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e6)
	var arr []arrival
	for i := 0; i < 10; i++ {
		arr = append(arr, arrival{t: float64(i) * 0.0001, p: pkt(1, uint64(i), 1000)})
	}
	out := runLink(w, 1e6, arr)
	for i, d := range out {
		if d.p.Seq != uint64(i) {
			t.Fatalf("single flow reordered: pos %d got seq %d", i, d.p.Seq)
		}
	}
}

func TestWFQThroughputShares(t *testing.T) {
	// Two continuously backlogged flows with rates 3:1 should be served
	// ~3:1 over a long run.
	w := NewWFQ(1e6)
	w.AddFlow(1, 7.5e5)
	w.AddFlow(2, 2.5e5)
	var arr []arrival
	for i := 0; i < 400; i++ {
		arr = append(arr, arrival{t: 0, p: pkt(1, uint64(i), 1000)})
		arr = append(arr, arrival{t: 0, p: pkt(2, uint64(1000+i), 1000)})
	}
	out := runLink(w, 1e6, arr)
	// Count flow-1 packets in the first half of transmissions.
	n1 := 0
	for _, d := range out[:400] {
		if d.p.FlowID == 1 {
			n1++
		}
	}
	ratio := float64(n1) / float64(400-n1)
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("service ratio = %v, want ~3", ratio)
	}
}

func TestWFQWorkConserving(t *testing.T) {
	// A single backlogged flow with a tiny clock rate still gets the full
	// link when alone.
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e3)
	w.AddFlow(2, 9.99e5)
	var arr []arrival
	for i := 0; i < 10; i++ {
		arr = append(arr, arrival{t: 0, p: pkt(1, uint64(i), 1000)})
	}
	out := runLink(w, 1e6, arr)
	if got, want := out[9].finish, 0.010; math.Abs(got-want) > 1e-9 {
		t.Fatalf("last finish = %v, want %v (work conservation violated)", got, want)
	}
}

func TestWFQIsolation(t *testing.T) {
	// The core guaranteed-service property (paper Section 4): a
	// conforming flow's delay is bounded regardless of how badly another
	// flow floods. Flow 1 sends at exactly its clock rate; flow 2 dumps a
	// giant burst.
	const mu = 1e6
	const r1 = 2.5e5
	w := NewWFQ(mu)
	w.AddFlow(1, r1)
	w.AddFlow(2, mu-r1)
	var arr []arrival
	for i := 0; i < 200; i++ {
		arr = append(arr, arrival{t: float64(i) * 1000 / r1, p: pkt(1, uint64(i), 1000)})
	}
	for i := 0; i < 700; i++ {
		arr = append(arr, arrival{t: 0.0001, p: pkt(2, uint64(1000+i), 1000)})
	}
	// Sort by time (insertion sort; mostly sorted).
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j].t < arr[j-1].t; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	out := runLink(w, mu, arr)
	// Flow 1 conforms to (r1, 1000 bits): fluid bound b/r + one max
	// packet time at the packet level (PGPS), plus one packet
	// transmission already in progress.
	bound := 1000/r1 + 1000/mu + 1000/mu
	for _, d := range out {
		if d.p.FlowID != 1 {
			continue
		}
		delay := d.finish - d.p.ArrivedAt
		if delay > bound+1e-9 {
			t.Fatalf("flow-1 packet seq %d delay %v exceeds bound %v despite flow-2 flood",
				d.p.Seq, delay, bound)
		}
	}
}

func TestWFQMatchesGPSWithinOnePacket(t *testing.T) {
	// Parekh-Gallager: PGPS finishes every packet no later than fluid GPS
	// plus one maximum packet time. Our virtual-time implementation uses
	// the packet-system backlog approximation, so allow a small slack.
	rng := rand.New(rand.NewSource(42))
	const mu = 1e6
	for trial := 0; trial < 60; trial++ {
		nf := 2 + rng.Intn(3)
		rates := map[uint32]float64{}
		w := NewWFQ(mu)
		remaining := mu
		for f := 0; f < nf; f++ {
			var r float64
			if f == nf-1 {
				r = remaining
			} else {
				r = remaining * (0.2 + 0.6*rng.Float64()) / float64(nf-f)
			}
			remaining -= r
			rates[uint32(f)] = r
			w.AddFlow(uint32(f), r)
		}
		var arr []arrival
		var gpsArr []GPSArrival
		now := 0.0
		maxSize := 0.0
		for i := 0; i < 120; i++ {
			now += rng.ExpFloat64() * 0.0004
			f := uint32(rng.Intn(nf))
			size := 200 + rng.Intn(1200)
			maxSize = math.Max(maxSize, float64(size))
			arr = append(arr, arrival{t: now, p: pkt(f, uint64(i), size)})
			gpsArr = append(gpsArr, GPSArrival{Time: now, Flow: f, Size: float64(size)})
		}
		out := runLink(w, mu, arr)
		gpsDep := GPSSimulate(mu, rates, gpsArr)
		gpsBySeq := map[uint64]float64{}
		for i, a := range arr {
			_ = a
			gpsBySeq[uint64(i)] = gpsDep[i]
		}
		slack := 2 * maxSize / mu
		for _, d := range out {
			if d.finish > gpsBySeq[d.p.Seq]+slack+1e-9 {
				t.Fatalf("trial %d: packet %d WFQ finish %v > GPS %v + slack %v",
					trial, d.p.Seq, d.finish, gpsBySeq[d.p.Seq], slack)
			}
		}
	}
}

func TestWFQBusyPeriodReset(t *testing.T) {
	// After the system drains, a fresh busy period must not inherit huge
	// finish tags.
	w := NewWFQ(1e6)
	w.AddFlow(1, 5e5)
	w.AddFlow(2, 5e5)
	arr := []arrival{
		{t: 0, p: pkt(1, 0, 1000)},
		{t: 10, p: pkt(2, 1, 1000)},
		{t: 10, p: pkt(1, 2, 1000)},
	}
	out := runLink(w, 1e6, arr)
	if out[1].p.Seq != 1 {
		t.Fatalf("after reset, flow 2's packet (arriving first in slice order) should be served first; got seq %d", out[1].p.Seq)
	}
	if out[2].finish > 10.003 {
		t.Fatalf("stale virtual time delayed service: finish %v", out[2].finish)
	}
}

func TestWFQFallbackRouting(t *testing.T) {
	w := NewWFQ(1e6)
	w.AddFlow(1, 5e5)
	w.AddFlowScheduler(Flow0ID, 5e5, NewFIFO())
	w.SetFallback(Flow0ID)
	w.Enqueue(pkt(777, 0, 1000), 0) // unknown flow -> flow 0
	if w.Len() != 1 {
		t.Fatal("fallback packet not accepted")
	}
	if got := w.Dequeue(0); got.FlowID != 777 {
		t.Fatal("fallback packet lost")
	}
}

func TestWFQUnknownFlowNoFallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown flow without fallback did not panic")
		}
	}()
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e6)
	w.Enqueue(pkt(2, 0, 1000), 0)
}

func TestWFQDuplicateFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddFlow did not panic")
		}
	}()
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e5)
	w.AddFlow(1, 1e5)
}

func TestWFQRemoveFlow(t *testing.T) {
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e5)
	w.AddFlow(2, 1e5)
	w.RemoveFlow(1)
	if w.Rate(1) != 0 {
		t.Fatal("removed flow still has a rate")
	}
	w.AddFlow(1, 2e5) // re-adding must work
	if w.Rate(1) != 2e5 {
		t.Fatal("re-added flow has wrong rate")
	}
	w.RemoveFlow(99) // unknown: no-op
}

func TestWFQRemoveBackloggedFlowDrains(t *testing.T) {
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e5)
	w.Enqueue(pkt(1, 0, 1000), 0)
	w.Enqueue(pkt(1, 1, 1000), 0)
	w.RemoveFlow(1)
	// The departing flow keeps its registration (and clock rate) until its
	// backlog drains, so in-flight packets are still served in order.
	if w.Rate(1) == 0 {
		t.Fatal("closing flow unregistered before draining")
	}
	if p := w.Dequeue(0); p == nil || p.FlowID != 1 {
		t.Fatalf("first drain dequeue = %v", p)
	}
	if w.Rate(1) == 0 {
		t.Fatal("closing flow unregistered with one packet still queued")
	}
	if p := w.Dequeue(0); p == nil || p.FlowID != 1 {
		t.Fatalf("second drain dequeue = %v", p)
	}
	if w.Rate(1) != 0 {
		t.Fatal("drained closing flow still registered")
	}
	w.AddFlow(1, 2e5) // the id is reusable once fully drained
	if w.Rate(1) != 2e5 {
		t.Fatal("re-added flow has wrong rate")
	}
}

func TestWFQSetRate(t *testing.T) {
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e5)
	w.SetRate(1, 3e5)
	if w.Rate(1) != 3e5 {
		t.Fatalf("Rate = %v, want 3e5", w.Rate(1))
	}
	// Changing rate while backlogged keeps accounting consistent: drain
	// afterwards without panic and with sane virtual time.
	w.AddFlow(2, 1e5)
	w.Enqueue(pkt(1, 0, 1000), 0)
	w.Enqueue(pkt(2, 1, 1000), 0)
	w.SetRate(1, 5e5)
	if w.Dequeue(0.001) == nil || w.Dequeue(0.002) == nil {
		t.Fatal("packets lost after SetRate")
	}
	if w.Len() != 0 {
		t.Fatal("Len != 0 after drain")
	}
}

func TestWFQEmpty(t *testing.T) {
	w := NewWFQ(1e6)
	w.AddFlow(1, 1e6)
	if w.Dequeue(0) != nil || w.Len() != 0 {
		t.Fatal("empty WFQ misbehaves")
	}
}

func TestWFQInvalidArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewWFQ(0) },
		func() { NewWFQ(1e6).AddFlow(1, 0) },
		func() { NewWFQ(1e6).SetRate(1, 1) },
		func() { NewWFQ(1e6).SetFallback(9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
