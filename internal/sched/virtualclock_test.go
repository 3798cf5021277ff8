package sched

import (
	"math"
	"testing"
)

func TestVirtualClockSingleFlowFIFO(t *testing.T) {
	v := newRated(KindVirtualClock, 9e5)
	var arr []arrival
	for i := 0; i < 10; i++ {
		arr = append(arr, arrival{t: float64(i) * 0.0001, p: gpkt(1, uint64(i), 1000)})
	}
	out := runLink(v, 1e6, arr)
	for i, d := range out {
		if d.p.Seq != uint64(i) {
			t.Fatalf("reordered at %d: seq %d", i, d.p.Seq)
		}
	}
}

func TestVirtualClockShares(t *testing.T) {
	v := newRated(KindVirtualClock, 6e5, 2e5)
	var arr []arrival
	for i := 0; i < 400; i++ {
		arr = append(arr, arrival{t: 0, p: gpkt(1, uint64(i), 1000)})
		arr = append(arr, arrival{t: 0, p: gpkt(2, uint64(1000+i), 1000)})
	}
	out := runLink(v, 1e6, arr)
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

func TestVirtualClockPunishesFormerIdler(t *testing.T) {
	// The classic VirtualClock/WFQ difference: a flow that was idle does
	// not build up credit — but one that overdrew in the past is stamped
	// into the future and suffers when a competitor shows up. Verify the
	// VC clock advances past real time for an overdriving flow.
	v := newRated(KindVirtualClock, 1e5) // entitled to 100 kb/s
	// Flow 1 dumps 20 packets at t=0: its VC runs to 20*1000/1e5 = 0.2s.
	for i := 0; i < 20; i++ {
		v.Enqueue(gpkt(1, uint64(i), 1000), 0)
	}
	f := v.table.byID[1]
	if math.Abs(f.last-0.2) > 1e-9 {
		t.Fatalf("VC clock = %v, want 0.2", f.last)
	}
}

func TestVirtualClockDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddGuaranteed did not panic")
		}
	}()
	v := newRated(KindVirtualClock, 1)
	v.AddGuaranteed(1, 1)
}

func TestVirtualClockEmpty(t *testing.T) {
	v := newRated(KindVirtualClock, 1e5)
	if v.Dequeue(0) != nil || v.Len() != 0 {
		t.Fatal("empty VirtualClock misbehaves")
	}
}
