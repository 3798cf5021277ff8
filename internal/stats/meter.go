package stats

// EWMA is an exponentially weighted moving average: avg += gain*(x - avg).
// FIFO+ uses one per (switch, class) to track the class-average queueing
// delay.
type EWMA struct {
	gain  float64
	value float64
	init  bool
}

// Init makes e an empty average with the given gain in (0, 1]. An EWMA is
// held by value: each FIFO+ class of a port holds one.
func (e *EWMA) Init(gain float64) {
	if gain <= 0 || gain > 1 {
		panic("stats: EWMA gain must be in (0,1]")
	}
	*e = EWMA{gain: gain}
}

// Add folds in one observation. The first observation initializes the
// average directly.
func (e *EWMA) Add(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value += e.gain * (x - e.value)
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// RateMeter measures a rate (e.g. bits/second of real-time traffic on a
// link) over fixed windows, retaining the recent per-window values so
// admission control can use a conservative (max-of-recent-windows) estimate
// rather than a plain average, as Section 9 prescribes.
type RateMeter struct {
	window  float64
	start   float64
	current float64
	recent  windowRing // most recent completed windows' rates
}

// NewRateMeter returns a meter with the given window length (seconds) that
// retains the keep (at least 1) most recent completed windows.
func NewRateMeter(window float64, keep int) *RateMeter {
	if window <= 0 {
		panic("stats: RateMeter window must be positive")
	}
	return &RateMeter{window: window, recent: windowRing{keep: keep}}
}

// Add records amount (e.g. bits) at time now.
func (m *RateMeter) Add(now, amount float64) {
	m.roll(now)
	m.current += amount
}

func (m *RateMeter) roll(now float64) {
	for now >= m.start+m.window {
		m.recent.push(m.current / m.window)
		m.current = 0
		m.start += m.window
		// Fast-forward across a long idle gap to keep windows before
		// now, dropping everything retained: it all predates the gap.
		// The loop then records keep or keep−1 empty windows, as the
		// float steps round, so the clear is what drops the last
		// pre-gap window when only keep−1 follow.
		if keep := m.recent.keep; now-m.start > float64(keep+1)*m.window {
			m.start = now - float64(keep)*m.window
			m.recent.clear()
		}
	}
}

// PeakRate returns the maximum per-window rate over the retained windows —
// the "consistently conservative" utilization estimate ν̂ used by admission
// control.
func (m *RateMeter) PeakRate(now float64) float64 {
	m.roll(now)
	peak := m.recent.max()
	if m.recent.n == 0 && now > m.start {
		peak = m.current / (now - m.start)
	}
	return peak
}

// WindowedMax tracks the maximum of observations over fixed windows,
// retaining recent windows; admission control uses it for the measured
// per-class maximal delay d̂ⱼ.
type WindowedMax struct {
	window float64
	start  float64
	cur    float64
	curSet bool
	recent windowRing
}

// Init makes w an empty tracker with the given window (seconds) retaining
// keep (at least 1) completed windows. A tracker is held by value: each
// FIFO+ class of a port holds one.
func (w *WindowedMax) Init(window float64, keep int) {
	if window <= 0 {
		panic("stats: WindowedMax window must be positive")
	}
	*w = WindowedMax{window: window, recent: windowRing{keep: keep}}
}

// Add records one observation at time now.
func (w *WindowedMax) Add(now, x float64) {
	w.roll(now)
	if !w.curSet || x > w.cur {
		w.cur = x
		w.curSet = true
	}
}

func (w *WindowedMax) roll(now float64) {
	for now >= w.start+w.window {
		// Push even empty windows so stale maxima age out.
		w.recent.push(w.cur)
		w.cur = 0
		w.curSet = false
		w.start += w.window
		if keep := w.recent.keep; now-w.start > float64(keep+1)*w.window {
			w.start = now - float64(keep)*w.window
			w.recent.clear()
		}
	}
}

// Max returns the maximum over the retained windows and the current partial
// window at time now. Returns 0 if nothing has been observed recently.
func (w *WindowedMax) Max(now float64) float64 {
	w.roll(now)
	m := w.recent.max()
	if w.curSet && w.cur > m {
		m = w.cur
	}
	return m
}

// windowRing holds the values of the keep most recent completed windows of
// a meter in a fixed ring: a new window overwrites the oldest, so a meter
// that rolls for the whole run allocates its ring once, at its first
// completed window, and never again.
type windowRing struct {
	buf  []float64 // len keep once allocated
	keep int
	head int // oldest retained value, while the ring is full
	n    int // values retained; while n < keep they are buf[:n]
}

// push retains v, dropping the oldest value if keep are retained.
func (r *windowRing) push(v float64) {
	if r.buf == nil {
		r.buf = make([]float64, r.keep)
	}
	if r.n < r.keep {
		r.buf[r.n] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == r.keep {
		r.head = 0
	}
}

// clear drops every retained value.
func (r *windowRing) clear() { r.head, r.n = 0, 0 }

// max returns the largest retained value, or 0 if none is above 0. The order
// of the values does not matter to a maximum, so the ring is scanned as it
// lies.
func (r *windowRing) max() float64 {
	m := 0.0
	for _, v := range r.buf[:r.n] {
		if v > m {
			m = v
		}
	}
	return m
}

// Counter is a simple named event counter pair used for loss accounting.
type Counter struct {
	Total   int64
	Dropped int64
}

// DropRate returns Dropped/Total, or 0 if nothing was counted.
func (c Counter) DropRate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Dropped) / float64(c.Total)
}
