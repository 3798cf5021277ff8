package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a log-bucketed histogram for positive values (delays). Bucket
// i covers [min·g^i, min·g^(i+1)) with growth factor g, so a fixed number of
// buckets spans several orders of magnitude — delay distributions in this
// system stretch from sub-millisecond to hundreds of milliseconds.
type Histogram struct {
	min    float64
	growth float64
	counts []int64
	under  int64 // values below min
	total  int64
	sum    float64
}

// NewHistogram builds a histogram with buckets of the given count starting
// at min and growing by factor growth (> 1) per bucket.
func NewHistogram(min, growth float64, buckets int) *Histogram {
	if min <= 0 || growth <= 1 || buckets < 1 {
		panic("stats: NewHistogram needs min > 0, growth > 1, buckets >= 1")
	}
	return &Histogram{min: min, growth: growth, counts: make([]int64, buckets)}
}

// NewDelayHistogram covers 0.1 ms to ~100 s in 40 buckets — suitable for
// any delay this system can produce.
func NewDelayHistogram() *Histogram { return NewHistogram(1e-4, 1.4142135623730951, 40) }

// Add records one value. Non-positive values land in the underflow bucket;
// values beyond the last bucket are clamped into it.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	if x < h.min {
		h.under++
		return
	}
	i := int(math.Log(x/h.min) / math.Log(h.growth))
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

// BucketBounds returns the lower bound of bucket i.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	lo = h.min * math.Pow(h.growth, float64(i))
	return lo, lo * h.growth
}

// Render draws an ASCII bar chart of the non-empty bucket range, with
// values scaled by unit (e.g. 1000 for milliseconds) and labelled with
// unitName.
func (h *Histogram) Render(unit float64, unitName string) string {
	if h.total == 0 {
		return "(no samples)\n"
	}
	first, last := -1, -1
	var peak int64
	for i, c := range h.counts {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
			if c > peak {
				peak = c
			}
		}
	}
	var b strings.Builder
	if h.under > 0 {
		fmt.Fprintf(&b, "%11s < %8.3f %s  %7d\n", "", h.min*unit, unitName, h.under)
	}
	if first < 0 {
		return b.String()
	}
	const width = 50
	for i := first; i <= last; i++ {
		lo, hi := h.BucketBounds(i)
		bar := int(float64(h.counts[i]) * width / float64(peak))
		if h.counts[i] > 0 && bar == 0 {
			bar = 1
		}
		fmt.Fprintf(&b, "%9.3f - %8.3f %s  %7d %s\n",
			lo*unit, hi*unit, unitName, h.counts[i], strings.Repeat("#", bar))
	}
	return b.String()
}
