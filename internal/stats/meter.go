package stats

// Meter keeps one value per fixed window of time and retains the keep most
// recent completed windows, so Section 9's admission control can use a
// "consistently conservative" estimate — the largest of the recent windows —
// rather than a plain average. A meter is fed through one of two pairs:
// AddSum and PeakRate sum each window (bits) and read the peak rate ν̂ of a
// link's real-time traffic; AddMax and Max keep each window's largest
// observation and read a class's recent maximal delay d̂ⱼ. One meter uses
// one pair; AddMax expects observations that are not negative.
type Meter struct {
	window float64
	start  float64
	cur    float64    // the current window's sum or maximum
	recent windowRing // the most recent completed windows' values
}

// Init makes m an empty meter with the given window (seconds) retaining
// keep (at least 1) completed windows. A meter is held by value: each
// admission controller and each FIFO+ class of a port holds one.
func (m *Meter) Init(window float64, keep int) {
	if window <= 0 {
		panic("stats: Meter window must be positive")
	}
	*m = Meter{window: window, recent: windowRing{keep: keep}}
}

// AddSum adds amount (e.g. bits) to the window holding now.
func (m *Meter) AddSum(now, amount float64) {
	m.roll(now)
	m.cur += amount
}

// AddMax records one observation x ≥ 0 in the window holding now.
func (m *Meter) AddMax(now, x float64) {
	m.roll(now)
	if x > m.cur {
		m.cur = x
	}
}

func (m *Meter) roll(now float64) {
	for now >= m.start+m.window {
		// Push even empty windows so stale values age out.
		m.recent.push(m.cur)
		m.cur = 0
		m.start += m.window
		// Fast-forward across a long idle gap to keep windows before
		// now, dropping everything retained: it all predates the gap.
		// The loop then records keep or keep−1 empty windows, as the
		// float steps round, so the clear is what drops the last
		// pre-gap window when only keep−1 follow.
		if keep := m.recent.keep; now-m.start > float64(keep+1)*m.window {
			m.start = now - float64(float64(keep)*m.window)
			m.recent.clear()
		}
	}
}

// PeakRate returns the largest per-window rate over the retained windows —
// the "consistently conservative" utilization estimate ν̂ used by admission
// control — or, before the first window completes, the rate so far. The
// ring keeps each window's sum and the peak divides the largest by the
// window as it reads: correctly rounded division by the same positive
// window is monotone, so that is the largest of the per-window rates bit
// for bit.
func (m *Meter) PeakRate(now float64) float64 {
	m.roll(now)
	if m.recent.n == 0 && now > m.start {
		return m.cur / (now - m.start)
	}
	return m.recent.max() / m.window
}

// Max returns the largest observation over the retained windows and the
// current partial window at time now, or 0 if nothing has been observed
// recently.
func (m *Meter) Max(now float64) float64 {
	m.roll(now)
	return max(m.recent.max(), m.cur)
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
