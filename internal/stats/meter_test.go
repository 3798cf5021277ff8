package stats

import (
	"math"
	"testing"
)

func TestEWMAFirstObservationInitializes(t *testing.T) {
	e := NewEWMA(0.1)
	if e.Initialized() {
		t.Fatal("fresh EWMA reports initialized")
	}
	e.Add(10)
	if !e.Initialized() || e.Value() != 10 {
		t.Fatalf("Value = %v, want 10", e.Value())
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.1)
	e.Add(0)
	for i := 0; i < 500; i++ {
		e.Add(42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Fatalf("Value = %v, want ~42", e.Value())
	}
}

func TestEWMAGainOne(t *testing.T) {
	e := NewEWMA(1)
	e.Add(1)
	e.Add(7)
	if e.Value() != 7 {
		t.Fatalf("gain-1 EWMA should track last value, got %v", e.Value())
	}
}

func TestEWMABadGainPanics(t *testing.T) {
	for _, g := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", g)
				}
			}()
			NewEWMA(g)
		}()
	}
}

func TestEWMAStep(t *testing.T) {
	e := NewEWMA(0.5)
	e.Add(0)
	e.Add(8) // 0 + 0.5*8 = 4
	if e.Value() != 4 {
		t.Fatalf("Value = %v, want 4", e.Value())
	}
	e.Add(4) // 4 + 0.5*0 = 4
	if e.Value() != 4 {
		t.Fatalf("Value = %v, want 4", e.Value())
	}
}

func TestRateMeterSteadyRate(t *testing.T) {
	m := NewRateMeter(1.0, 5)
	// 100 units per second for 10 seconds.
	for i := 0; i < 1000; i++ {
		m.Add(float64(i)*0.01, 1.0)
	}
	if peak := m.PeakRate(10.0); math.Abs(peak-100) > 1 {
		t.Fatalf("PeakRate = %v, want ~100", peak)
	}
}

func TestRateMeterPeakSeesBurst(t *testing.T) {
	m := NewRateMeter(1.0, 5)
	// 1 unit/s background, with a 50-unit burst in window [2,3).
	for i := 0; i < 6; i++ {
		m.Add(float64(i)+0.5, 1.0)
	}
	m.Add(2.6, 50)
	if peak := m.PeakRate(6.0); peak < 50 {
		t.Fatalf("PeakRate = %v, want >= 50", peak)
	}
}

func TestRateMeterIdleGap(t *testing.T) {
	m := NewRateMeter(1.0, 3)
	m.Add(0.5, 100)
	// Long idle period: rate must decay to 0 once the active window
	// leaves the retained set.
	if r := m.PeakRate(100); r != 0 {
		t.Fatalf("PeakRate after idle gap = %v, want 0", r)
	}
}

func TestRateMeterPartialWindow(t *testing.T) {
	m := NewRateMeter(10.0, 3)
	m.Add(1.0, 30)
	r := m.PeakRate(3.0)
	if math.Abs(r-10) > 1e-9 { // 30 units over 3 seconds of partial window
		t.Fatalf("partial-window PeakRate = %v, want 10", r)
	}
}

func TestWindowedMaxTracksRecentMax(t *testing.T) {
	w := NewWindowedMax(1.0, 3)
	w.Add(0.1, 5)
	w.Add(0.2, 9)
	w.Add(1.5, 2)
	if got := w.Max(1.6); got != 9 {
		t.Fatalf("Max = %v, want 9", got)
	}
	// After the window holding 9 expires (keep=3 windows), max drops.
	if got := w.Max(10.0); got != 0 {
		t.Fatalf("Max after expiry = %v, want 0", got)
	}
}

func TestWindowedMaxCurrentPartialWindowCounts(t *testing.T) {
	w := NewWindowedMax(10.0, 2)
	w.Add(1.0, 3)
	if got := w.Max(2.0); got != 3 {
		t.Fatalf("Max = %v, want 3 (current window must count)", got)
	}
}

func TestCounterDropRate(t *testing.T) {
	var c Counter
	if c.DropRate() != 0 {
		t.Fatal("empty counter drop rate should be 0")
	}
	c.Total = 1000
	c.Dropped = 1
	if got := c.DropRate(); got != 0.001 {
		t.Fatalf("DropRate = %v, want 0.001", got)
	}
}

func TestRateMeterPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive window")
		}
	}()
	NewRateMeter(0, 1)
}

func TestWindowedMaxPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive window")
		}
	}()
	NewWindowedMax(-1, 1)
}
