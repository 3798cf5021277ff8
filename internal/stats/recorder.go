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
// grows up to it; a full chunk is never copied or reallocated. At 8 KiB a
// recorder leaves at most one chunk's room unused.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// maxRuns is how many of its smallest distinct values a recorder counts
// instead of storing each sample of.
const maxRuns = 32

// run is one of a recorder's smallest distinct values and how many samples
// of it were added.
type run struct {
	v float64
	c int
}

// Recorder accumulates a sample set and answers exact order statistics.
// It keeps every sample — the paper's Table 3 world holds millions — so
// storage costs what it holds: its smallest distinct values (a link that is
// not saturated delivers many packets that waited nowhere, recorded as 0 or
// a few float residues of it) as sorted runs of (value, count), at most 32,
// and every other sample in chunks, a dozen samples occupying a dozen
// samples and 400 k occupying 400 k x 8 B, growing with no garbage beyond
// the first chunk's regrowths. Every chunked sample but NaN is above every
// run. For unbounded runs use P2Quantile instead.
//
// Percentile answers a rank the runs hold by walking them. Any other rank
// it selects in place over the chunks instead of sorting, and remembers the
// ranks it placed until the chunks next take a sample, so a report's
// 0.50/0.99/0.999 each search only between their already-placed neighbours.
//
// The zero Recorder is empty and ready to use, so one can sit inside a larger
// struct (a flow's meter) at no allocation until its first sample.
type Recorder struct {
	runs   []run       // ascending; grows as an appended slice does, to maxRuns
	runN   int         // the samples the runs hold
	bound  float64     // Add's one test: above it, or NaN, to the chunks; the largest run once runs is full, +Inf before (0 until the first sample)
	chunks [][]float64 // len == cap each; sample i is chunks[i>>chunkShift][i&(chunkLen-1)]
	tail   []float64   // the last chunk up to its last sample, so Add reads no chunk table
	n      int         // the samples the chunks hold
	placed []int       // -1, the ranks placed (see selectRank) since the chunks last took a sample, n
	sum    float64
	max    float64 // set by the first Add
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return new(Recorder) }

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
// does until it is half full, then — where append would overshoot — to
// exactly chunkLen; after that the full chunk stays where it is and a new
// one is started.
func (r *Recorder) grow() {
	k := len(r.tail)
	switch {
	case k == chunkLen:
		r.tail = make([]float64, 0, chunkLen)
		r.chunks = append(r.chunks, r.tail[:chunkLen])
		return
	case k > chunkLen/2:
		r.tail = append(make([]float64, 0, chunkLen), r.tail...)
	default:
		t := slices.Grow(r.tail, 1)
		r.tail = t[:k:min(cap(t), chunkLen)]
	}
	r.chunks = append(r.chunks[:0], r.tail[:cap(r.tail)])
}

// Add records one sample. A sample above the runs costs one compare more
// than appending it to the chunks.
func (r *Recorder) Add(x float64) {
	r.sum += x
	if x <= r.bound || len(r.tail) == cap(r.tail) {
		r.add(x, 1)
		return
	}
	r.tail = append(r.tail, x) // a chunk sample is held, so max is set
	r.n++
	if x > r.max {
		r.max = x
	}
}

// add records c samples of x, but not in the sum: Add's path for a sample
// that joins the runs or finds the tail full, and Absorb's for a run.
func (r *Recorder) add(x float64, c int) {
	if r.Count() == 0 || x > r.max {
		r.max = x
	}
	if x <= r.bound || len(r.runs) < maxRuns && x == x { // NaN aside, a table not full takes all; the zero Recorder's bound is 0, not +Inf
		r.addRun(x, c)
		return
	}
	for range c {
		r.push(x)
	}
}

// addRun adds c samples of x, at most the largest run's value or while
// fewer than maxRuns runs exist, to its run. A new run in a full table
// pushes the largest run into the chunks — all of whose samples lie above
// it — so the bound only falls and a sample enters the chunks at most once.
func (r *Recorder) addRun(x float64, c int) {
	r.runN += c
	i := 0
	for i < len(r.runs) && r.runs[i].v < x { // the smallest values are the commonest
		i++
	}
	if i < len(r.runs) && r.runs[i].v == x {
		r.runs[i].c += c
		return
	}
	if len(r.runs) == maxRuns {
		top := r.runs[maxRuns-1]
		r.runs = r.runs[:maxRuns-1]
		r.runN -= top.c
		for range top.c {
			r.push(top.v)
		}
	}
	r.runs = append(r.runs, run{})
	copy(r.runs[i+1:], r.runs[i:])
	r.runs[i] = run{x, c}
	r.bound = math.Inf(1)
	if len(r.runs) == maxRuns {
		r.bound = r.runs[maxRuns-1].v
	}
}

// push appends x to the chunks.
func (r *Recorder) push(x float64) {
	if len(r.tail) == cap(r.tail) {
		r.grow()
	}
	r.tail = append(r.tail, x) // into the room made: never reallocates
	r.n++
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
	for _, s := range src.runs {
		r.add(s.v, s.c)
	}
	for i, n := 0, src.n; i < n; i++ {
		r.Add(src.at(i))
	}
	r.sum = sum
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return r.runN + r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Recorder) Mean() float64 {
	if r.Count() == 0 {
		return 0
	}
	return r.sum / float64(r.Count())
}

// Max returns the largest sample, or 0 with no samples.
func (r *Recorder) Max() float64 {
	if r.Count() == 0 {
		return 0
	}
	return r.max
}

// Percentile returns the exact p-quantile (0 <= p <= 1) using the
// nearest-rank method. With no samples it returns 0. It reorders samples.
func (r *Recorder) Percentile(p float64) float64 {
	v, _ := r.read(p)
	return v
}

// read is Percentile, also returning the samples selectRank visited. A rank
// below the runs' total count is their value, found by walking them; any
// other rank, less that count, is a rank of the chunks, selected between
// its placed neighbours.
func (r *Recorder) read(p float64) (v float64, visits int) {
	all := r.Count()
	if all == 0 {
		return 0, 0
	}
	k := min(max(int(math.Ceil(p*float64(all)))-1, 0), all-1)
	for _, s := range r.runs {
		if k < s.c {
			return s.v, 0
		}
		k -= s.c
	}
	if len(r.placed) == 0 || r.placed[len(r.placed)-1] != r.n {
		r.placed = append(r.placed[:0], -1, r.n) // the chunks took samples: nothing is placed
	}
	at, found := slices.BinarySearch(r.placed, k)
	if !found {
		visits = r.selectRank(r.placed[at-1]+1, r.placed[at]-1, k)
		r.placed = slices.Insert(r.placed, at, k)
	}
	return r.at(k), visits
}

// partition splits samples lo..hi (at least 16) around a median-of-three
// pivot with Hoare's scheme and returns j < i, or j == i on an equal of the
// pivot, with lo..j <= pivot <= i..hi; a sample between them equals the
// pivot.
func (r *Recorder) partition(lo, hi int) (j, i int) {
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
	pivot := r.at(mid)
	i, j = lo+1, hi-1
	for {
		for r.at(i) < pivot {
			i++
		}
		for r.at(j) > pivot {
			j--
		}
		if i >= j {
			return j, i
		}
		r.swap(i, j)
		i, j = i+1, j-1
	}
}

// selectRank permutes samples lo..hi until rank k is placed — holds its
// sorted value, nothing larger to its left, nothing smaller to its right:
// quickselect by partition passes, then a sort of what is left (an
// insertion sort, at that size) below 16 samples — or after 2*log2(len)
// passes, so no input is quadratic. For the tests' comparison budget it
// returns the samples visited: a pass compares each of its span with the
// pivot once, and the sort is charged 2*len*log2(len).
func (r *Recorder) selectRank(lo, hi, k int) (visits int) {
	for depth := 2 * bits.Len(uint(hi-lo)); hi-lo >= 16 && depth > 0; depth-- {
		visits += hi - lo + 1
		if j, i := r.partition(lo, hi); k <= j { // i is j+1, or j on an equal of the pivot: lo..j <= pivot <= i..hi
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
