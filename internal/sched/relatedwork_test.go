package sched

import (
	"math"
	"testing"

	"ispn/internal/packet"
)

// --- Delay-EDD -------------------------------------------------------------

func TestDelayEDDServesByDeadline(t *testing.T) {
	e := NewDelayEDD(0.010, 0.050)
	// Flow 2 bursts two packets at t=0: the second's deadline regenerates
	// one spacing later (0.060), behind flow 1's later arrival (0.051).
	e.Enqueue(pkt(2, 0, 1000), 0)
	e.Enqueue(pkt(2, 1, 1000), 0)
	e.Enqueue(pkt(1, 2, 1000), 0.001)
	for _, want := range []uint64{0, 2, 1} {
		if got := e.Dequeue(0.002); got.Seq != want {
			t.Fatalf("served seq %d, want %d", got.Seq, want)
		}
	}
}

func TestDelayEDDDeadlineRegeneration(t *testing.T) {
	// A flow sending faster than the peak spacing has its deadlines pushed
	// out at that spacing — the isolation mechanism.
	e := NewDelayEDD(0.010, 0.010) // peak 100 pkt/s -> 10 ms spacing
	for i := 0; i < 5; i++ {
		e.Enqueue(pkt(1, uint64(i), 1000), 0) // burst at t=0
	}
	// Deadlines: 0.010, 0.020, 0.030, 0.040, 0.050.
	want := 0.010
	for i := 0; i < 5; i++ {
		p := e.Dequeue(0)
		if math.Abs(p.Tag-want) > 1e-12 {
			t.Fatalf("packet %d deadline %v, want %v", i, p.Tag, want)
		}
		want += 0.010
	}
}

func TestDelayEDDForgetsLapsedFlows(t *testing.T) {
	e := NewDelayEDD(0.010, 0.010)
	e.Enqueue(pkt(1, 0, 1000), 0)
	e.Enqueue(pkt(1, 1, 1000), 0) // credit regenerates to start 0.010
	e.Dequeue(0.001)
	if _, kept := e.last[1]; !kept {
		t.Fatal("flow 1 forgotten while its next credit (0.020) is still ahead")
	}
	e.Dequeue(0.020)
	if len(e.last) != 0 {
		t.Fatalf("flow table %v after flow 1's credits lapsed, want empty", e.last)
	}
	// A forgotten flow starts afresh at its arrival, as it would have anyway.
	e.Enqueue(pkt(1, 2, 1000), 0.025)
	if p := e.Dequeue(0.025); p.Tag != 0.035 {
		t.Fatalf("deadline %v, want 0.035", p.Tag)
	}
}

func TestDelayEDDIsolationOnLink(t *testing.T) {
	// A conforming flow keeps its per-hop budget even when another flow
	// misbehaves wildly.
	e := NewDelayEDD(1/200.0, 0.008)
	var arr []arrival
	// Flow 1: conforming, 200 pkt/s.
	for i := 0; i < 100; i++ {
		arr = append(arr, arrival{t: float64(i) * 0.005, p: pkt(1, uint64(i), 1000)})
	}
	// Flow 2: dumps 300 packets at t=0 (vastly over its peak).
	for i := 0; i < 300; i++ {
		arr = append(arr, arrival{t: 0, p: pkt(2, uint64(1000+i), 1000)})
	}
	for i := 1; i < len(arr); i++ {
		for j := i; j > 0 && arr[j].t < arr[j-1].t; j-- {
			arr[j], arr[j-1] = arr[j-1], arr[j]
		}
	}
	out := runLink(e, 1e6, arr)
	for _, d := range out {
		if d.p.FlowID != 1 {
			continue
		}
		delay := d.finish - d.p.ArrivedAt
		// Budget + one packet transmission (non-preemption).
		if delay > 0.008+0.001+1e-9 {
			t.Fatalf("conforming flow packet %d delayed %v despite EDD isolation", d.p.Seq, delay)
		}
	}
}

func TestDelayEDDValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewDelayEDD(0, 0.01) },
		func() { NewDelayEDD(0.01, 0) },
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

func TestDelayEDDEmpty(t *testing.T) {
	e := NewDelayEDD(0.01, 0.01)
	if e.Dequeue(0) != nil || e.Len() != 0 {
		t.Fatal("empty DelayEDD misbehaves")
	}
}

// --- Stop-and-Go ------------------------------------------------------------

func TestStopAndGoHoldsCurrentFrame(t *testing.T) {
	s := NewStopAndGo(0.010)
	p := pkt(1, 0, 1000)
	s.Enqueue(p, 0.003) // frame [0, 0.010): eligible at 0.010
	if got := s.Dequeue(0.009); got != nil {
		t.Fatal("packet released inside its arrival frame")
	}
	if got := s.NextEligible(0.009); math.Abs(got-0.010) > 1e-12 {
		t.Fatalf("NextEligible = %v, want 0.010", got)
	}
	if got := s.Dequeue(0.010); got != p {
		t.Fatal("packet not released at the frame boundary")
	}
}

func TestStopAndGoFrameBatching(t *testing.T) {
	s := NewStopAndGo(0.010)
	// Two packets in frame 0, one in frame 1.
	a := pkt(1, 0, 1000)
	b := pkt(1, 1, 1000)
	c := pkt(1, 2, 1000)
	s.Enqueue(a, 0.001)
	s.Enqueue(b, 0.009)
	s.Enqueue(c, 0.011)
	if got := s.Dequeue(0.010); got != a {
		t.Fatal("frame-0 packets should release first, FIFO")
	}
	if got := s.Dequeue(0.010); got != b {
		t.Fatal("second frame-0 packet next")
	}
	if got := s.Dequeue(0.015); got != nil {
		t.Fatal("frame-1 packet released early")
	}
	if got := s.Dequeue(0.020); got != c {
		t.Fatal("frame-1 packet lost")
	}
}

func TestStopAndGoLen(t *testing.T) {
	s := NewStopAndGo(0.010)
	s.Enqueue(pkt(1, 0, 1000), 0.001)
	if s.Len() != 1 || s.eligible.Len() != 0 {
		t.Fatalf("Len = %d with %d eligible, want 1 held", s.Len(), s.eligible.Len())
	}
	s.promote(0.010)
	if s.Len() != 1 || s.eligible.Len() != 1 {
		t.Fatalf("Len = %d with %d eligible after the frame boundary, want 1 eligible", s.Len(), s.eligible.Len())
	}
}

func TestStopAndGoJitterBoundOnLink(t *testing.T) {
	// The defining property: per-hop delay is within (0, 2T] regardless
	// of arrival phase, so jitter across packets is bounded by ~2T.
	// The link enqueues each packet at its arrival instant, as a port does,
	// so Stop-and-Go assigns it the frame it arrived in.
	s := &enqueueClock{holder: NewStopAndGo(0.010)}
	var arr []arrival
	for i := 0; i < 50; i++ {
		arr = append(arr, arrival{t: float64(i) * 0.0037, p: pkt(1, uint64(i), 1000)})
	}
	out := runLinkNWC(s, 1e6, arr)
	if len(out) != 50 {
		t.Fatalf("delivered %d", len(out))
	}
	if s.late > 0 {
		t.Fatalf("%d of 50 arrivals enqueued after their instant", s.late)
	}
	for _, d := range out {
		delay := d.finish - d.p.ArrivedAt
		if delay <= 0 || delay > 0.020+0.001+1e-9 {
			t.Fatalf("packet %d delay %v outside (0, 2T]", d.p.Seq, delay)
		}
	}
}

// enqueueClock counts the packets enqueued later than they arrived.
type enqueueClock struct {
	holder
	late int
}

func (c *enqueueClock) Enqueue(p *packet.Packet, now float64) {
	if now > p.ArrivedAt {
		c.late++
	}
	c.holder.Enqueue(p, now)
}

func TestStopAndGoBadFramePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero frame")
		}
	}()
	NewStopAndGo(0)
}

func TestStopAndGoEmptyNextEligible(t *testing.T) {
	s := NewStopAndGo(0.010)
	if !math.IsInf(s.NextEligible(5), 1) {
		t.Fatal("empty StopAndGo NextEligible should be +Inf")
	}
}
