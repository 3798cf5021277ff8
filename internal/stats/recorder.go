// Package stats provides the measurement machinery the architecture depends
// on: exact and streaming delay statistics (the paper reports means and
// 99.9th-percentile delays), exponentially weighted averages (FIFO+ class
// averages), and windowed rate/delay meters (the Section 9 measurement-based
// admission control needs "consistently conservative estimates" of link
// utilization and per-class delay).
package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// chunkLen is the length of every chunk of samples but the first, which
// grows up to it; a full chunk is never copied or reallocated.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
)

// Recorder accumulates a sample set and answers exact order statistics.
// It keeps every sample — the paper's Table 3 world holds millions — in
// chunks, so storage costs what it holds: a dozen samples occupy a dozen
// samples, 400 k occupy 400 k x 8 B, and growing leaves no garbage beyond
// the first chunk's regrowths. For unbounded runs use P2Quantile instead.
//
// Percentile selects the wanted rank in place instead of sorting, and
// remembers the ranks placed since the last Add/Absorb, so a report's
// 0.50/0.99/0.999 each search only between their already-placed neighbours.
type Recorder struct {
	chunks [][]float64 // len == cap each; sample i is chunks[i>>chunkShift][i&(chunkLen-1)]
	tail   []float64   // the last chunk up to its last sample, so Add reads no chunk table
	n      int
	placed []int // -1, the ranks placed (see selectRank) since samples were last added, n
	sum    float64
	max    float64
	min    float64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{min: math.Inf(1), max: math.Inf(-1)} }

// NewRecorderSize is NewRecorder: chunked storage has nothing to presize.
// It survives only because bench/probes.go calls it and bench/ is frozen;
// the next [benchmark] PR should switch that call and delete this.
func NewRecorderSize(int) *Recorder { return NewRecorder() }

// ref addresses sample i; at reads it.
func (r *Recorder) ref(i int) *float64 { return &r.chunks[i>>chunkShift][i&(chunkLen-1)] }
func (r *Recorder) at(i int) float64   { return *r.ref(i) }

func (r *Recorder) swap(i, j int) {
	a, b := r.ref(i), r.ref(j)
	*a, *b = *b, *a
}

// grow makes room in a full tail: the first chunk grows as an appended slice
// does, up to chunkLen; after that the full chunk stays where it is and a new
// one is started.
func (r *Recorder) grow() {
	if k := len(r.tail); k < chunkLen {
		t := slices.Grow(r.tail, 1)
		r.tail = t[:k:min(cap(t), chunkLen)]
		r.chunks = append(r.chunks[:0], r.tail[:cap(r.tail)])
		return
	}
	r.tail = make([]float64, 0, chunkLen)
	r.chunks = append(r.chunks, r.tail[:chunkLen])
}

// Add records one sample.
func (r *Recorder) Add(x float64) {
	if len(r.tail) == cap(r.tail) {
		r.grow()
	}
	r.tail = append(r.tail, x) // into the room made: never reallocates
	r.n++
	r.sum += x
	if x > r.max {
		r.max = x
	}
	if x < r.min {
		r.min = x
	}
}

// Absorb merges every sample of src into r (recorders are merged when
// aggregating per-flow statistics into per-class or per-experiment views).
// The sum is added as a sum, so the result depends on the order of the
// merges, not of the samples. src is unchanged.
func (r *Recorder) Absorb(src *Recorder) {
	if src == nil {
		return
	}
	sum := r.sum + src.sum
	for i, n := 0, src.n; i < n; i++ {
		r.Add(src.at(i))
	}
	r.sum = sum
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Recorder) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Max returns the largest sample, or 0 with no samples.
func (r *Recorder) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Percentile returns the exact p-quantile (0 <= p <= 1) using the
// nearest-rank method. With no samples it returns 0. It reorders samples.
func (r *Recorder) Percentile(p float64) float64 {
	n := r.n
	switch {
	case n == 0:
		return 0
	case p <= 0:
		return r.min
	case p >= 1:
		return r.max
	}
	rank := min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
	if len(r.placed) == 0 || r.placed[len(r.placed)-1] != n {
		r.placed = append(r.placed[:0], -1, n) // samples were added: nothing is placed
	}
	at, found := slices.BinarySearch(r.placed, rank)
	if !found {
		r.selectRank(r.placed[at-1]+1, r.placed[at]-1, rank)
		r.placed = slices.Insert(r.placed, at, rank)
	}
	return r.at(rank)
}

// selectRank permutes samples lo..hi until rank k is placed — holds its
// sorted value, nothing larger to its left, nothing smaller to its right:
// quickselect with a median-of-three pivot and Hoare partition, then a sort
// of what is left (an insertion sort, at that size) below 16 samples — or
// after 2*log2(len) passes, so no input is quadratic. For the tests'
// comparison budget it returns the samples visited: a pass compares each of
// its span with the pivot once, and the sort is charged 2*len*log2(len).
func (r *Recorder) selectRank(lo, hi, k int) (visits int) {
	for depth := 2 * bits.Len(uint(hi-lo)); hi-lo >= 16 && depth > 0; depth-- {
		visits += hi - lo + 1
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid) < r.at(lo) {
			r.swap(mid, lo)
		}
		if r.at(hi) < r.at(mid) {
			r.swap(hi, mid)
			if r.at(mid) < r.at(lo) {
				r.swap(mid, lo)
			}
		}
		// Neither scan needs a bound: lo and hi, then every swapped pair,
		// stop it (a NaN stops both), and each swap moves i and j inward.
		pivot, i, j := r.at(mid), lo+1, hi-1
		for {
			for r.at(i) < pivot {
				i++
			}
			for r.at(j) > pivot {
				j--
			}
			if i >= j {
				break
			}
			r.swap(i, j)
			i, j = i+1, j-1
		}
		if k <= j { // i is j+1, or j on an equal of the pivot: lo..j <= pivot <= i..hi
			hi = j
		} else {
			lo = i
		}
	}
	sort.Sort(span{r, lo, hi - lo + 1})
	return visits + 2*(hi-lo+1)*bits.Len(uint(hi-lo))
}

// span is samples lo..lo+n-1 of r as a sort.Interface.
type span struct {
	r     *Recorder
	lo, n int
}

func (s span) Len() int           { return s.n }
func (s span) Less(i, j int) bool { return s.r.at(s.lo+i) < s.r.at(s.lo+j) }
func (s span) Swap(i, j int)      { s.r.swap(s.lo+i, s.lo+j) }
