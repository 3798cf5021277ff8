package sched

import (
	"math"
	"testing"
)

// --- Delay-EDD -------------------------------------------------------------

func TestDelayEDDServesByDeadline(t *testing.T) {
	e := NewDelayEDD()
	e.AddFlow(1, 100, 0.050) // tight budget
	e.AddFlow(2, 100, 0.200) // loose budget
	// Flow 2's packet arrives first but has the later deadline.
	e.Enqueue(pkt(2, 0, 1000), 0)
	e.Enqueue(pkt(1, 1, 1000), 0.001)
	if got := e.Dequeue(0.002); got.Seq != 1 {
		t.Fatal("tight-budget packet should be served first")
	}
	if got := e.Dequeue(0.002); got.Seq != 0 {
		t.Fatal("second packet lost")
	}
}

func TestDelayEDDDeadlineRegeneration(t *testing.T) {
	// A flow sending faster than its declared peak has its deadlines
	// pushed out at the declared spacing — the isolation mechanism.
	e := NewDelayEDD()
	e.AddFlow(1, 100, 0.010) // declared peak 100 pkt/s -> 10 ms spacing
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

func TestDelayEDDIsolationOnLink(t *testing.T) {
	// A conforming flow keeps its per-hop budget even when another flow
	// misbehaves wildly.
	e := NewDelayEDD()
	e.AddFlow(1, 200, 0.008)
	e.AddFlow(2, 200, 0.008)
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
	e := NewDelayEDD()
	e.AddFlow(1, 100, 0.01)
	for _, f := range []func(){
		func() { e.AddFlow(1, 100, 0.01) },
		func() { e.AddFlow(2, 0, 0.01) },
		func() { e.AddFlow(3, 100, 0) },
		func() { e.Enqueue(pkt(9, 0, 1000), 0) },
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
	e := NewDelayEDD()
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
	s := NewStopAndGo(0.010)
	var arr []arrival
	for i := 0; i < 50; i++ {
		arr = append(arr, arrival{t: float64(i) * 0.0037, p: pkt(1, uint64(i), 1000)})
	}
	out := runLinkNWC(s, 1e6, arr)
	if len(out) != 50 {
		t.Fatalf("delivered %d", len(out))
	}
	for _, d := range out {
		delay := d.finish - d.p.ArrivedAt
		if delay <= 0 || delay > 0.020+0.001+1e-9 {
			t.Fatalf("packet %d delay %v outside (0, 2T]", d.p.Seq, delay)
		}
	}
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
