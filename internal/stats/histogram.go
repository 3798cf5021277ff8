package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a log-bucketed histogram for positive values (delays). Bucket
// i covers [histMin·g^i, histMin·g^(i+1)) with growth factor g = histGrowth,
// so its histBuckets buckets span 0.1 ms to ~100 s — any delay this system
// can produce, from sub-millisecond to hundreds of milliseconds.
type Histogram struct {
	counts [histBuckets]int64
	under  int64 // values below histMin
	total  int64
	sum    float64
}

// The one bucket layout in use: 0.1 ms, growing by √2, 40 buckets.
const (
	histMin     = 1e-4
	histGrowth  = 1.4142135623730951
	histBuckets = 40
)

// NewDelayHistogram returns an empty delay histogram.
func NewDelayHistogram() *Histogram { return new(Histogram) }

// Add records one value. Non-positive values land in the underflow bucket;
// values beyond the last bucket are clamped into it.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	if x < histMin {
		h.under++
		return
	}
	i := int(math.Log(x/histMin) / math.Log(histGrowth))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the mean of recorded values.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// bucketBounds returns the bounds [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	lo = histMin * math.Pow(histGrowth, float64(i))
	return lo, lo * histGrowth
}

// Render draws an ASCII bar chart of the non-empty bucket range, with
// values scaled by unit (e.g. 1000 for milliseconds) and labelled with
// unitName.
func (h *Histogram) Render(unit float64, unitName string) string {
	if h.total == 0 {
		return "(no samples)\n"
	}
	// With every sample below min, first > last and no bucket is drawn.
	first, last := len(h.counts), -1
	var peak int64
	for i, c := range h.counts {
		if c > 0 {
			first = min(first, i)
			last = i
			if c > peak {
				peak = c
			}
		}
	}
	var b strings.Builder
	if h.under > 0 {
		fmt.Fprintf(&b, "%11s < %8.3f %s  %7d\n", "", histMin*unit, unitName, h.under)
	}
	const width = 50
	for i := first; i <= last; i++ {
		lo, hi := bucketBounds(i)
		bar := int(float64(h.counts[i]) * width / float64(peak))
		if h.counts[i] > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "%9.3f - %8.3f %s  %7d %s\n",
			lo*unit, hi*unit, unitName, h.counts[i], strings.Repeat("#", bar))
	}
	return b.String()
}
