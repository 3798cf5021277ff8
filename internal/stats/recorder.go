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
	"sync"
)

// chunkLen is the length of every chunk of samples but the first, which
// grows up to it; a full chunk is never copied or reallocated. At 8 KiB a
// recorder leaves at most one chunk's room unused.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// maxPlaced is how many placed ranks, sentinels included, one word can mark
// as touched; a rank placed past them is dropped at the next absorb.
const maxPlaced = 64

// Recorder accumulates a sample set and answers exact order statistics.
// It keeps every sample — the paper's Table 3 world holds millions — in
// chunks, so storage costs what it holds: a dozen samples occupy a dozen
// samples, 400 k occupy 400 k x 8 B, and growing leaves no garbage beyond
// the first chunk's regrowths. For unbounded runs use P2Quantile instead.
//
// Percentile selects the wanted rank in place instead of sorting, and
// remembers the ranks it placed, so a report's 0.50/0.99/0.999 each search
// only between their already-placed neighbours. A read that follows Adds
// keeps that partition: it first absorbs the new samples into the segments
// between the ranks the previous reads touched, and every read after the
// first keeps guard ranks around its answer, so a live reader pays for the
// samples added since its last read, not for the run so far.
//
// The zero Recorder is empty and ready to use, so one can sit inside a larger
// struct (a flow's meter) at no allocation until its first sample.
type Recorder struct {
	chunks   [][]float64 // len == cap each; sample i is chunks[i>>chunkShift][i&(chunkLen-1)]
	tail     []float64   // the last chunk up to its last sample, so Add reads no chunk table
	n        int
	placed   []int  // -1, the ranks placed (see selectRank) among the first placed[len-1] samples, that count
	touched  uint64 // bit i: placed[i] was answered or kept as a guard since the last absorb
	absorbed int    // the samples the last absorb took in; 0 before the first, when reads place no guards
	sum      float64
	max      float64 // set by the first Add
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

// Add records one sample.
func (r *Recorder) Add(x float64) {
	if len(r.tail) == cap(r.tail) {
		r.grow()
	}
	r.tail = append(r.tail, x) // into the room made: never reallocates
	if r.n == 0 || x > r.max {
		r.max = x
	}
	r.n++
	r.sum += x
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
	v, _ := r.read(p)
	return v
}

// read is Percentile, also returning the samples it visited: selectRank's
// count, plus absorb's.
//
// The first read places its rank by one quickselect over every sample. A
// read that follows Adds first absorbs them, so the ranks the last round of
// reads touched stay placed, each moved up by the new samples below it.
// From then on a read also keeps two guards on each side of its rank, in
// units of the most the rank can move against its old placed value in one
// absorb of the last one's size (p of it up, 1-p down, plus 16): a near
// one 1..3 units away, placed at 2, and a far one 3..15 units away, placed
// at 12. So the next read selects between its old answer and a near guard,
// and re-placing a worn guard searches no farther than the far one. Only a
// rank that keeps moving one way, 9 units past where its far guard was
// placed, cuts the segment beyond it — up to the next answered rank's
// guards, or the end — again.
func (r *Recorder) read(p float64) (v float64, visits int) {
	n := r.n
	if n == 0 {
		return 0, 0
	}
	if len(r.placed) == 0 {
		r.placed = append(r.placed, -1, n)
	} else if r.placed[len(r.placed)-1] != n {
		visits = r.absorb()
	}
	k := min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
	var touchBuf, wantBuf [5]int
	touch := append(touchBuf[:0], k) // the ranks this read touches
	if r.absorbed > 0 {
		pm := int(min(max(p, 0), 1) * float64(r.absorbed))
		for _, g := range [2]struct{ dir, d int }{{-1, r.absorbed - pm + 16}, {1, pm + 16}} {
			touch = append(touch,
				r.guardRank(k, g.dir, g.d, 3*g.d, 2*g.d, false),
				r.guardRank(k, g.dir, 3*g.d+1, 15*g.d, 12*g.d, true))
		}
	}
	w := wantBuf[:0] // those of them not placed yet
	for _, q := range touch {
		if _, found := slices.BinarySearch(r.placed, q); !found {
			w = append(w, q)
		}
	}
	slices.Sort(w)
	for i := 0; i < len(w); {
		at, _ := slices.BinarySearch(r.placed, w[i])
		j := i + 1
		for j < len(w) && w[j] < r.placed[at] {
			j++
		}
		visits += r.selectRanks(r.placed[at-1]+1, r.placed[at]-1, w[i:j])
		i = j
	}
	for _, q := range touch {
		r.mark(q)
	}
	return r.at(k), visits
}

// guardRank returns the guard of rank k on side dir (+1 above, -1 below) at
// a distance in lo..hi: the nearest placed rank there — the farthest, for a
// far guard, so that a small move does not turn it near — or the end of the
// samples if that is nearer than lo; else the rank at distance mid, which
// the caller places.
func (r *Recorder) guardRank(k, dir, lo, hi, mid int, far bool) int {
	ps := r.placed
	if dir > 0 {
		i, _ := slices.BinarySearch(ps, k+lo)
		switch {
		case i == len(ps):
			return ps[i-1]
		case ps[i] > k+hi:
			return k + mid
		case far:
			j, _ := slices.BinarySearch(ps, k+hi+1)
			return ps[j-1]
		}
		return ps[i]
	}
	i, _ := slices.BinarySearch(ps, k-lo+1)
	switch {
	case i == 0:
		return ps[0]
	case ps[i-1] < k-hi:
		return k - mid
	case far:
		j, _ := slices.BinarySearch(ps, k-hi)
		return ps[j]
	}
	return ps[i-1]
}

// mark records rank q, placed by now, as placed and as touched by this
// round of reads.
func (r *Recorder) mark(q int) {
	at, found := slices.BinarySearch(r.placed, q)
	if !found {
		r.placed = slices.Insert(r.placed, at, q)
		low := r.touched & (1<<at - 1)
		r.touched = low | (r.touched^low)<<1
	}
	r.touched |= 1 << at
}

// absorbBufs holds the buffers absorb sorts the new samples into by
// segment, so a steady reader allocates nothing.
var absorbBufs = sync.Pool{New: func() any { return new([]float64) }}

// absorb takes the samples added since the last read into the placed
// partition. It keeps the interior ranks the last round of reads touched
// and drops the rest; sorts the new samples by the segment between kept
// ranks whose values hold them (a binary search each); then, from the top
// segment down, moves each kept rank up by the new samples below it. A
// segment moving up by s, being unordered, moves only its first s samples
// (all of them, if fewer) to its end, in block copies, and takes its new
// samples after them. It returns the samples it compared or moved: two per
// new sample (classified, written into place), the displaced ones and the
// kept ranks.
func (r *Recorder) absorb() (visits int) {
	old := r.placed[len(r.placed)-1]
	m := r.n - old
	r.absorbed = m
	kept := r.placed[:1]
	for i, q := range r.placed[1 : len(r.placed)-1] {
		if r.touched>>(i+1)&1 != 0 {
			kept = append(kept, q)
		}
	}
	r.touched = 0
	segs := len(kept)
	var vals [maxPlaced]float64
	for i, q := range kept[1:] {
		vals[i] = r.at(q)
	}
	seg := func(x float64) int { return sort.SearchFloat64s(vals[:segs-1], x) } // the kept ranks below x
	// Segment s takes the new samples b[start[s]:start[s+1]], and moves up by start[s].
	var start [maxPlaced + 1]int
	for i := old; i < r.n; i++ {
		start[seg(r.at(i))+1]++
	}
	for s := 1; s <= segs; s++ {
		start[s] += start[s-1]
	}
	buf := absorbBufs.Get().(*[]float64)
	b := slices.Grow((*buf)[:0], m)[:m]
	fill := start
	for i := old; i < r.n; i++ {
		x := r.at(i)
		s := seg(x)
		b[fill[s]] = x
		fill[s]++
	}
	top := old // where segment s ends, before the move
	for s := segs - 1; s >= 0; s-- {
		lo, shift := kept[s]+1, start[s]
		d := min(shift, top-lo)
		dst := max(top, lo+shift)
		r.move(dst, lo, d)
		r.store(dst+d, b[shift:start[s+1]])
		visits += d
		if s > 0 {
			q := kept[s]
			*r.ref(q + shift) = r.at(q)
			kept[s] = q + shift
			top = q
		}
	}
	*buf = b
	absorbBufs.Put(buf)
	r.placed = append(kept, r.n)
	return visits + 2*m + segs
}

// move copies samples src.. to dst.., k of them; the destination lies
// above the source and overlaps it nowhere.
func (r *Recorder) move(dst, src, k int) {
	for k > 0 {
		to := r.chunks[dst>>chunkShift][dst&(chunkLen-1):]
		c := copy(to[:min(len(to), k)], r.chunks[src>>chunkShift][src&(chunkLen-1):])
		dst, src, k = dst+c, src+c, k-c
	}
}

// store writes xs to samples dst.. .
func (r *Recorder) store(dst int, xs []float64) {
	for len(xs) > 0 {
		c := copy(r.chunks[dst>>chunkShift][dst&(chunkLen-1):], xs)
		dst, xs = dst+c, xs[c:]
	}
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

// selectRanks places every rank of ks — ascending, inside lo..hi — as
// selectRank places one, following each side of a pass that still holds a
// wanted rank, so ranks close together cost about one selection; past the
// pass budget, or in a span below 16, it places them one by one.
func (r *Recorder) selectRanks(lo, hi int, ks []int) (visits int) {
	for depth := 2 * bits.Len(uint(hi-lo)); len(ks) > 1 && hi-lo >= 16 && depth > 0; depth-- {
		visits += hi - lo + 1
		j, i := r.partition(lo, hi)
		a, _ := slices.BinarySearch(ks, j+1) // ks[:a] lie in lo..j
		b, _ := slices.BinarySearch(ks, i)   // ks[b:] in i..hi; one between holds the pivot, placed
		visits += r.selectRanks(lo, j, ks[:a])
		lo, ks = i, ks[b:]
	}
	for _, k := range ks {
		visits += r.selectRank(lo, hi, k)
		lo = k + 1
	}
	return visits
}

// span is samples lo..lo+n-1 of r as a sort.Interface.
type span struct {
	r     *Recorder
	lo, n int
}

func (s span) Len() int           { return s.n }
func (s span) Less(i, j int) bool { return s.r.at(s.lo+i) < s.r.at(s.lo+j) }
func (s span) Swap(i, j int)      { s.r.swap(s.lo+i, s.lo+j) }
