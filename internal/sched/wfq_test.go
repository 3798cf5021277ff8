package sched

import (
	"math"
	"math/rand"
	"testing"
)

func TestWFQSingleFlowIsFIFO(t *testing.T) {
	w := newRated(KindWFQ, 9e5)
	var arr []arrival
	for i := 0; i < 10; i++ {
		arr = append(arr, arrival{t: float64(i) * 0.0001, p: gpkt(1, uint64(i), 1000)})
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
	// ~3:1 over a long run; idle flow 0's leftover share goes to them.
	w := newRated(KindWFQ, 6e5, 2e5)
	var arr []arrival
	for i := 0; i < 400; i++ {
		arr = append(arr, arrival{t: 0, p: gpkt(1, uint64(i), 1000)})
		arr = append(arr, arrival{t: 0, p: gpkt(2, uint64(1000+i), 1000)})
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
	w := newRated(KindWFQ, 1e3, 9e5)
	var arr []arrival
	for i := 0; i < 10; i++ {
		arr = append(arr, arrival{t: 0, p: gpkt(1, uint64(i), 1000)})
	}
	out := runLink(w, 1e6, arr)
	if got, want := out[9].finish, 0.010; math.Abs(got-want) > 1e-9 {
		t.Fatalf("last finish = %v, want %v (work conservation violated)", got, want)
	}
}

func TestWFQIsolation(t *testing.T) {
	// The core guaranteed-service property (paper Section 4): a
	// conforming flow's delay is bounded regardless of how badly another
	// flow floods. Flow 1 sends at exactly its clock rate; flow 2, holding
	// most of the rest, dumps a giant burst.
	const mu = 1e6
	const r1 = 2.5e5
	w := newRated(KindWFQ, r1, 7e5)
	var arr []arrival
	for i := 0; i < 200; i++ {
		arr = append(arr, arrival{t: float64(i) * 1000 / r1, p: gpkt(1, uint64(i), 1000)})
	}
	for i := 0; i < 700; i++ {
		arr = append(arr, arrival{t: 0.0001, p: gpkt(2, uint64(1000+i), 1000)})
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
	// the packet-system backlog approximation, so allow a small slack. The
	// flows reserve 0.9 µ, flow 0 the rest and sends nothing; GPS gets the
	// same rates and, like WFQ, shares the link among the backlogged flows
	// in their proportion, so the idle leftover changes no finish time.
	rng := rand.New(rand.NewSource(42))
	const mu = 1e6
	for trial := 0; trial < 60; trial++ {
		nf := 2 + rng.Intn(3)
		rates := map[uint32]float64{}
		w := mustPipeline(Profile{Kind: KindWFQ})
		remaining := 0.9 * mu
		for f := 0; f < nf; f++ {
			var r float64
			if f == nf-1 {
				r = remaining
			} else {
				r = remaining * (0.2 + 0.6*rng.Float64()) / float64(nf-f)
			}
			remaining -= r
			rates[uint32(f)] = r
			w.AddGuaranteed(uint32(f), r)
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
			arr = append(arr, arrival{t: now, p: gpkt(f, uint64(i), size)})
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
	w := newRated(KindWFQ, 4e5, 4e5)
	arr := []arrival{
		{t: 0, p: gpkt(1, 0, 1000)},
		{t: 10, p: gpkt(2, 1, 1000)},
		{t: 10, p: gpkt(1, 2, 1000)},
	}
	out := runLink(w, 1e6, arr)
	if out[1].p.Seq != 1 {
		t.Fatalf("after reset, flow 2's packet (arriving first in slice order) should be served first; got seq %d", out[1].p.Seq)
	}
	if out[2].finish > 10.003 {
		t.Fatalf("stale virtual time delayed service: finish %v", out[2].finish)
	}
}

// TestWFQFallbackRouting: a packet without a reservation here — a flow id
// never reserved, or a guaranteed packet whose id is not — is served by
// flow 0.
func TestWFQFallbackRouting(t *testing.T) {
	w := newRated(KindWFQ, 5e5)
	w.Enqueue(pkt(777, 0, 1000), 0)
	w.Enqueue(gpkt(778, 1, 1000), 0)
	if w.Len() != 2 || w.table.flow0.tags.Len() != 2 {
		t.Fatalf("Len = %d, flow 0 holds %d; want both packets in flow 0", w.Len(), w.table.flow0.tags.Len())
	}
	for _, id := range []uint32{777, 778} {
		if got := w.Dequeue(0); got == nil || got.FlowID != id {
			t.Fatalf("Dequeue = %+v, want flow %d's packet", got, id)
		}
	}
}

func TestWFQDuplicateFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddGuaranteed did not panic")
		}
	}()
	w := newRated(KindWFQ, 1e5)
	w.AddGuaranteed(1, 1e5)
}

func TestWFQRemoveFlow(t *testing.T) {
	w := newRated(KindWFQ, 1e5, 1e5)
	w.RemoveGuaranteed(1)
	if clockRate(w, 1) != 0 || w.Reserved() != 1e5 {
		t.Fatalf("removed flow: rate %v, reserved %v", clockRate(w, 1), w.Reserved())
	}
	w.AddGuaranteed(1, 2e5) // re-adding must work
	if clockRate(w, 1) != 2e5 {
		t.Fatal("re-added flow has wrong rate")
	}
	w.RemoveGuaranteed(99) // unknown: no-op
	if w.Reserved() != 3e5 || clockRate(w, Flow0ID) != 7e5 {
		t.Fatalf("reserved %v, flow 0 %v after removing an unknown id", w.Reserved(), clockRate(w, Flow0ID))
	}
}

func TestWFQRemoveBackloggedFlowDrains(t *testing.T) {
	w := newRated(KindWFQ, 1e5)
	w.Enqueue(gpkt(1, 0, 1000), 0)
	w.Enqueue(gpkt(1, 1, 1000), 0)
	w.RemoveGuaranteed(1)
	// The departing flow keeps its registration (and clock rate) until its
	// backlog drains, so in-flight packets are still served in order; its
	// reservation is gone at once.
	if f := w.table.byID[1]; f == nil || f.rate != 1e5 {
		t.Fatal("closing flow unregistered before draining")
	}
	if w.Reserved() != 0 || clockRate(w, 1) != 0 {
		t.Fatalf("closing flow still reserves: reserved %v", w.Reserved())
	}
	w.RemoveGuaranteed(1) // removing it again releases nothing twice
	if w.Reserved() != 0 || clockRate(w, Flow0ID) != 1e6 {
		t.Fatalf("second removal: reserved %v, flow 0 %v", w.Reserved(), clockRate(w, Flow0ID))
	}
	if p := w.Dequeue(0); p == nil || p.FlowID != 1 {
		t.Fatalf("first drain dequeue = %v", p)
	}
	if w.table.byID[1] == nil {
		t.Fatal("closing flow unregistered with one packet still queued")
	}
	if p := w.Dequeue(0); p == nil || p.FlowID != 1 {
		t.Fatalf("second drain dequeue = %v", p)
	}
	if w.table.byID[1] != nil || len(w.table.flows) != 1 {
		t.Fatal("drained closing flow still registered")
	}
	w.AddGuaranteed(1, 2e5) // the id is reusable once fully drained
	if clockRate(w, 1) != 2e5 {
		t.Fatal("re-added flow has wrong rate")
	}
}

func TestWFQSetRate(t *testing.T) {
	w := newRated(KindWFQ, 1e5)
	w.SetGuaranteedRate(1, 3e5)
	if clockRate(w, 1) != 3e5 || clockRate(w, Flow0ID) != 7e5 {
		t.Fatalf("rates = %v and %v, want 3e5 and flow 0 7e5", clockRate(w, 1), clockRate(w, Flow0ID))
	}
	// Changing rate while backlogged keeps accounting consistent: drain
	// afterwards without panic, and the backlogged-rate sum returns to
	// exactly 0.
	w.AddGuaranteed(2, 1e5)
	w.Enqueue(gpkt(1, 0, 1000), 0)
	w.Enqueue(gpkt(2, 1, 1000), 0)
	w.Enqueue(pkt(3, 2, 1000), 0)
	w.SetGuaranteedRate(1, 5e5)
	if want := 5e5 + 1e5 + 4e5; w.wfq.activeRate != want {
		t.Fatalf("backlogged-rate sum = %v after SetGuaranteedRate, want %v", w.wfq.activeRate, want)
	}
	if w.Dequeue(0.001) == nil || w.Dequeue(0.002) == nil || w.Dequeue(0.003) == nil {
		t.Fatal("packets lost after SetGuaranteedRate")
	}
	if w.Len() != 0 || w.wfq.activeRate != 0 {
		t.Fatalf("Len = %d, backlogged-rate sum %v after drain; want 0 and 0", w.Len(), w.wfq.activeRate)
	}
	// Rates with no exact binary sum leave a rounding residue when each
	// is subtracted back out; a drained port's sum is exactly 0 all the
	// same.
	w.SetGuaranteedRate(1, 1e5/3)
	w.SetGuaranteedRate(2, 1e5/7)
	w.Enqueue(gpkt(1, 3, 1000), 1)
	w.Enqueue(gpkt(2, 4, 1000), 1)
	w.Enqueue(pkt(3, 5, 1000), 1)
	w.SetGuaranteedRate(1, 2e5/3)
	for w.Dequeue(1.001) != nil {
	}
	if w.wfq.activeRate != 0 {
		t.Fatalf("backlogged-rate sum %v after drain, want exactly 0", w.wfq.activeRate)
	}
}

func TestWFQEmpty(t *testing.T) {
	w := newRated(KindWFQ, 9e5)
	if w.Dequeue(0) != nil || w.Len() != 0 {
		t.Fatal("empty WFQ misbehaves")
	}
}

func TestWFQInvalidArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { newRated(KindWFQ, 0) },
		func() { newRated(KindWFQ, -1) },
		func() { newRated(KindWFQ, 1e6) },
		func() { newRated(KindWFQ, 6e5, 4e5) },
		func() { newRated(KindWFQ).SetGuaranteedRate(1, 1) },
		func() { newRated(KindWFQ, 1e5).SetGuaranteedRate(1, 0) },
		func() { newRated(KindWFQ, 1e5).SetGuaranteedRate(1, 1e6) },
		func() { newRated(KindWFQ, 5e5).SetLinkRate(5e5, 0) },
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
