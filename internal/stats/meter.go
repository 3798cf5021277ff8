package stats

// EWMA is an exponentially weighted moving average: avg += gain*(x - avg).
// FIFO+ uses one per (switch, class) to track the class-average queueing
// delay.
type EWMA struct {
	gain  float64
	value float64
	init  bool
}

// NewEWMA returns an average with the given gain in (0, 1].
func NewEWMA(gain float64) *EWMA {
	if gain <= 0 || gain > 1 {
		panic("stats: EWMA gain must be in (0,1]")
	}
	return &EWMA{gain: gain}
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
	keep    int
	start   float64
	current float64
	recent  []float64 // most recent completed windows, newest last
}

// NewRateMeter returns a meter with the given window length (seconds) that
// retains the keep most recent completed windows.
func NewRateMeter(window float64, keep int) *RateMeter {
	if window <= 0 {
		panic("stats: RateMeter window must be positive")
	}
	if keep < 1 {
		keep = 1
	}
	return &RateMeter{window: window, keep: keep}
}

// Add records amount (e.g. bits) at time now.
func (m *RateMeter) Add(now, amount float64) {
	m.roll(now)
	m.current += amount
}

func (m *RateMeter) roll(now float64) {
	for now >= m.start+m.window {
		m.recent = append(m.recent, m.current/m.window)
		if len(m.recent) > m.keep {
			m.recent = m.recent[1:]
		}
		m.current = 0
		m.start += m.window
		// Fast-forward across long idle gaps without recording dozens
		// of empty windows. Everything retained predates the gap, so
		// drop it.
		if now-m.start > float64(m.keep+1)*m.window {
			m.start = now - float64(m.keep)*m.window
			m.recent = m.recent[:0]
		}
	}
}

// PeakRate returns the maximum per-window rate over the retained windows —
// the "consistently conservative" utilization estimate ν̂ used by admission
// control.
func (m *RateMeter) PeakRate(now float64) float64 {
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

// WindowedMax tracks the maximum of observations over fixed windows,
// retaining recent windows; admission control uses it for the measured
// per-class maximal delay d̂ⱼ.
type WindowedMax struct {
	window float64
	keep   int
	start  float64
	cur    float64
	curSet bool
	recent []float64
}

// NewWindowedMax returns a tracker with the given window (seconds) retaining
// keep completed windows.
func NewWindowedMax(window float64, keep int) *WindowedMax {
	if window <= 0 {
		panic("stats: WindowedMax window must be positive")
	}
	if keep < 1 {
		keep = 1
	}
	return &WindowedMax{window: window, keep: keep}
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

// Max returns the maximum over the retained windows and the current partial
// window at time now. Returns 0 if nothing has been observed recently.
func (w *WindowedMax) Max(now float64) float64 {
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
