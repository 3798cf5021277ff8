package stats

// TimeSeries bins samples into fixed-width time intervals so a run can be
// reported as a curve (per-interval delay, admission decisions, departures)
// rather than only an end-of-run aggregate. Bins are created on demand; a
// bin that never received a sample reads as the zero TimeBin. All state is
// plain counters, so two runs that feed identical (t, v) streams produce
// bit-identical series — the property the timeline subsystem's
// parallel-vs-sequential determinism tests rely on.
type TimeSeries struct {
	dt   float64
	bins []TimeBin
}

// TimeBin is the aggregate of one interval.
type TimeBin struct {
	N   int64   // samples in the interval
	Sum float64 // sum of sample values
	Max float64 // largest sample value (0 when N == 0)
}

// Mean returns the interval's average sample value, or 0 with no samples.
func (b TimeBin) Mean() float64 {
	if b.N == 0 {
		return 0
	}
	return b.Sum / float64(b.N)
}

// NewTimeSeries returns a series with the given interval width in seconds.
func NewTimeSeries(dt float64) *TimeSeries {
	if dt <= 0 {
		panic("stats: TimeSeries interval must be positive")
	}
	return &TimeSeries{dt: dt}
}

// Add records sample v at time t. Negative times land in bin 0.
func (ts *TimeSeries) Add(t, v float64) {
	i := 0
	if t > 0 {
		i = int(t / ts.dt)
	}
	for len(ts.bins) <= i {
		ts.bins = append(ts.bins, TimeBin{})
	}
	b := &ts.bins[i]
	b.N++
	b.Sum += v
	if v > b.Max {
		b.Max = v
	}
}

// Bin returns the aggregate of interval i ([i*dt, (i+1)*dt)); intervals
// beyond the last sample read as empty.
func (ts *TimeSeries) Bin(i int) TimeBin {
	if i < 0 || i >= len(ts.bins) {
		return TimeBin{}
	}
	return ts.bins[i]
}
