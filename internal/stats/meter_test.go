package stats

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

func TestEWMAFirstObservationInitializes(t *testing.T) {
	var e EWMA
	e.Init(0.1)
	if e.Initialized() {
		t.Fatal("fresh EWMA reports initialized")
	}
	e.Add(10)
	if !e.Initialized() || e.Value() != 10 {
		t.Fatalf("Value = %v, want 10", e.Value())
	}
}

func TestEWMAConverges(t *testing.T) {
	var e EWMA
	e.Init(0.1)
	e.Add(0)
	for i := 0; i < 500; i++ {
		e.Add(42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Fatalf("Value = %v, want ~42", e.Value())
	}
}

func TestEWMAGainOne(t *testing.T) {
	var e EWMA
	e.Init(1)
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
					t.Errorf("Init(%v) did not panic", g)
				}
			}()
			new(EWMA).Init(g)
		}()
	}
}

func TestEWMAStep(t *testing.T) {
	var e EWMA
	e.Init(0.5)
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
	var w WindowedMax
	w.Init(1.0, 3)
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
	var w WindowedMax
	w.Init(10.0, 2)
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
	new(WindowedMax).Init(-1, 1)
}

// sliceRateMeter and sliceWindowedMax are the meters as they were before
// their windows moved into a fixed ring: append the completed window, then
// reslice the oldest off the front. They are the reference the ring versions
// must match bit for bit, and the allocation baseline they must beat.
type sliceRateMeter struct {
	window, start, current float64
	keep                   int
	recent                 []float64
}

func (m *sliceRateMeter) Add(now, amount float64) {
	m.roll(now)
	m.current += amount
}

func (m *sliceRateMeter) roll(now float64) {
	for now >= m.start+m.window {
		m.recent = append(m.recent, m.current/m.window)
		if len(m.recent) > m.keep {
			m.recent = m.recent[1:]
		}
		m.current = 0
		m.start += m.window
		if now-m.start > float64(m.keep+1)*m.window {
			m.start = now - float64(m.keep)*m.window
			m.recent = m.recent[:0]
		}
	}
}

func (m *sliceRateMeter) PeakRate(now float64) float64 {
	m.roll(now)
	peak := 0.0
	for _, r := range m.recent {
		if r > peak {
			peak = r
		}
	}
	if len(m.recent) == 0 && now > m.start {
		peak = m.current / (now - m.start)
	}
	return peak
}

type sliceWindowedMax struct {
	window, start, cur float64
	keep               int
	curSet             bool
	recent             []float64
}

func (w *sliceWindowedMax) Add(now, x float64) {
	w.roll(now)
	if !w.curSet || x > w.cur {
		w.cur = x
		w.curSet = true
	}
}

func (w *sliceWindowedMax) roll(now float64) {
	for now >= w.start+w.window {
		w.recent = append(w.recent, w.cur)
		if len(w.recent) > w.keep {
			w.recent = w.recent[1:]
		}
		w.cur = 0
		w.curSet = false
		w.start += w.window
		if now-w.start > float64(w.keep+1)*w.window {
			w.start = now - float64(w.keep)*w.window
			w.recent = w.recent[:0]
		}
	}
}

func (w *sliceWindowedMax) Max(now float64) float64 {
	w.roll(now)
	m := 0.0
	for _, v := range w.recent {
		if v > m {
			m = v
		}
	}
	if w.curSet && w.cur > m {
		m = w.cur
	}
	return m
}

// TestMetersMatchSliceModel drives the ring meters and the slice meters they
// replaced with the same seeded streams — bursts of closely spaced
// observations, gaps inside the retained span, and idle gaps long enough to
// take the fast-forward — and requires every PeakRate and Max to agree bit
// for bit.
func TestMetersMatchSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		window := []float64{0.25, 1, 3}[r.Intn(3)]
		keep := []int{0, 1, 3, 10, 30}[r.Intn(5)]
		m, sm := NewRateMeter(window, keep), &sliceRateMeter{window: window, keep: max(keep, 1)}
		w, sw := new(WindowedMax), &sliceWindowedMax{window: window, keep: max(keep, 1)}
		w.Init(window, keep)
		now := 0.0
		for i := 0; i < 5000; i++ {
			switch x := r.Float64(); {
			case x < 0.01: // idle: fast-forward
				now += window * float64(keep+2+r.Intn(50))
			case x < 0.05: // a gap inside the retained span
				now += window * float64(r.Intn(keep+2))
			default:
				now += window * r.Float64() / 8
			}
			v := r.ExpFloat64()
			m.Add(now, v)
			sm.Add(now, v)
			w.Add(now, v)
			sw.Add(now, v)
			if r.Intn(4) == 0 {
				q := now + window*r.Float64()*float64(keep+3)
				if got, want := m.PeakRate(q), sm.PeakRate(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: PeakRate(%v) = %v, slice model %v", seed, i, q, got, want)
				}
				if got, want := w.Max(q), sw.Max(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: Max(%v) = %v, slice model %v", seed, i, q, got, want)
				}
				now = q
			}
		}
	}
}

// TestMetersRollWithoutAllocating rolls each meter through 10⁴ windows and
// counts every object the whole loop allocates: a meter that runs for the
// whole simulation must not allocate as it goes. An average over single
// rolls (testing.AllocsPerRun) divides in integers and reads one object per
// 30 windows as 0, so the count is taken across the loop. The slice model
// the ring replaced is run the same way and must allocate, or the count
// would not tell the two apart.
func TestMetersRollWithoutAllocating(t *testing.T) {
	const windows = 10_000
	count := func(add func(now, x float64)) uint64 {
		add(0.5, 1)
		add(1.5, 1) // the first completed window allocates the ring
		// A collection inside the count allocates a stray runtime object
		// now and then; with collection off every object is the meter's.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 2; i < windows+2; i++ {
			add(float64(i)+0.5, float64(i%7))
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	m, w := NewRateMeter(1, 10), new(WindowedMax)
	w.Init(1, 30)
	for _, c := range []struct {
		name string
		add  func(now, x float64)
	}{
		{"RateMeter", func(now, x float64) { m.Add(now, x); m.PeakRate(now) }},
		{"WindowedMax", func(now, x float64) { w.Add(now, x); w.Max(now) }},
	} {
		if n := count(c.add); n != 0 {
			t.Errorf("%s allocated %d objects over %d windows, want 0", c.name, n, windows)
		}
	}
	sw := &sliceWindowedMax{window: 1, keep: 30}
	if n := count(func(now, x float64) { sw.Add(now, x); sw.Max(now) }); n == 0 {
		t.Errorf("the slice model allocated nothing over %d windows: the count cannot see a leak", windows)
	}
}
