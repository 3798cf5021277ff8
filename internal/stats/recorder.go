// Package stats provides the measurement machinery the architecture depends
// on: exact and streaming delay statistics (the paper reports means and
// 99.9th-percentile delays), a delay histogram, and one windowed meter for
// Section 9's measurement-based admission control, which needs "consistently
// conservative estimates" of link utilization (ν̂) and per-class delay (d̂ⱼ).
package stats

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// chunkLen is how many samples a block codes. The tail that fills one
// grows as an appended slice does up to it, and is then reused for the
// next: a recorder leaves at most one chunk's room unused.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// maxRuns is how many of its smallest distinct values a recorder counts
// instead of storing each sample of.
const maxRuns = 32

// bucketShift sizes sortKeys' counting pass and a block's high parts: keys
// are bucketed by the top bucketShift bits of their offset from the
// smallest, 2·chunkLen buckets.
const bucketShift = chunkShift + 1

// gatherMax is how many keys a read's bisection leaves between its bounds
// before it decodes them and picks its rank among them.
const gatherMax = 64

// run is one of a recorder's smallest distinct values, as its key, and how
// many samples of it were added.
type run struct {
	k uint64
	c int
}

// Recorder accumulates a sample set and answers exact order statistics.
// It keeps every sample — the paper's Table 3 world holds millions — as a
// multiset: the mean and the maximum are running values, so the order of
// the samples never reaches an answer. Its smallest distinct values (a link
// that is not saturated delivers many packets that waited nowhere,
// recorded as 0 or a few float residues of it) are sorted runs of (value,
// count), at most 32. Every other sample is a key (see key) in the tail,
// and a tail that reaches chunkLen keys is sorted and coded as one block,
// an Elias–Fano code per binade that drops the low bits its keys share:
// about 4 B a simulated delay, against the 8 B of a float; the tail is
// then reused. Every key but NaN's is above every run. For unbounded runs
// use P2Quantile instead.
//
// Percentile answers a rank the runs hold by walking them. Any other rank
// it finds by bisecting the key space for the smallest key at or above
// which enough samples lie, counting each block's without decoding it; the
// only thing a read moves is the tail, which it sorts in place.
//
// The zero Recorder is empty and ready to use, so one can sit inside a larger
// struct (a flow's meter) at no allocation until its first sample.
type Recorder struct {
	runs   []run    // ascending; grows as an appended slice does, to maxRuns
	bound  uint64   // Add's one test: a key above it to the tail; the largest run's once runs is full, the largest key before (0 until the first sample)
	blocks []block  // every full chunk, coded
	tail   []uint64 // the keys since the last block; grows as an appended slice does, to chunkLen
	sum    float64
	max    float64   // set by the first Add
	hits   [16]uint8 // 1 + the index of a run whose key hashes here (see hitSlot), 0 for none: Add finds a repeated value without searching
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return new(Recorder) }

// NewRecorderSize is NewRecorder: chunked storage has nothing to presize.
// It survives only because bench/probes.go calls it and bench/ is frozen;
// the next [benchmark] PR should switch that call and delete this.
func NewRecorderSize(int) *Recorder { return NewRecorder() }

// key maps a sample to a uint64 whose unsigned order is the samples'
// numeric order, −0 just below +0: a negative sample's bits are flipped, a
// positive one's sign bit set. A positive NaN's key is above +Inf's, a
// negative one's below −Inf's; add maps every NaN to the largest key.
func key(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// value inverts key; the largest key, NaN's, is a NaN.
func value(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// Add records one sample. A sample above the runs costs one compare more
// than appending its key to the tail: a negative NaN's key is below every
// bound but the zero Recorder's, so it takes add's path, and a positive
// one's is above every other key already.
func (r *Recorder) Add(x float64) {
	r.sum += x
	k := key(x)
	if k > r.bound && len(r.tail) < cap(r.tail) {
		r.tail = append(r.tail, k) // a chunked sample is held, so max is set
		if x > r.max {
			r.max = x
		}
		return
	}
	if j := int(r.hits[hitSlot(k)]) - 1; j >= 0 && r.runs[j].k == k { // a value the runs hold, so at most max
		r.runs[j].c++
		return
	}
	r.add(x, k, 1)
}

// hitSlot is where in hits a run of key k is remembered.
func hitSlot(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 >> 60 }

// add records c samples of x, whose key is k, but not in the sum: Add's
// path for a sample that joins a new run or finds the tail full, and
// Absorb's for a run.
func (r *Recorder) add(x float64, k uint64, c int) {
	if r.bound == 0 { // no sample yet: a run's key is never 0, NaN's only
		r.max, r.bound = x, math.MaxUint64
	} else if x > r.max {
		r.max = x
	}
	if x != x {
		k = math.MaxUint64 // above every bound's key but the first sample's
	} else if k <= r.bound {
		r.addRun(k, c)
		return
	}
	for range c {
		r.push(k)
	}
}

// addRun adds c samples of key k, at most the largest run's or while fewer
// than maxRuns runs exist, to its run. A new run in a full table pushes the
// largest run into the tail — all of whose keys lie above it — so the bound
// only falls and a sample leaves the runs at most once.
func (r *Recorder) addRun(k uint64, c int) {
	i := 0 // the runs below k, found without a branch, which a mix of values mispredicts
	if n := len(r.runs); n > 0 {
		for ; n > 1; n -= n >> 1 {
			_, below := bits.Sub64(r.runs[i+n>>1].k, k, 0)
			i += n >> 1 & -int(below)
		}
		_, below := bits.Sub64(r.runs[i].k, k, 0)
		i += int(below)
	}
	if i < len(r.runs) && r.runs[i].k == k {
		r.runs[i].c += c
		r.hits[hitSlot(k)] = uint8(i + 1)
		return
	}
	r.hits = [16]uint8{}
	if len(r.runs) == maxRuns {
		top := r.runs[maxRuns-1]
		r.runs = r.runs[:maxRuns-1]
		for range top.c {
			r.push(top.k)
		}
	}
	r.runs = append(r.runs, run{})
	copy(r.runs[i+1:], r.runs[i:])
	r.runs[i] = run{k, c}
	r.bound = math.MaxUint64
	if len(r.runs) == maxRuns {
		r.bound = r.runs[maxRuns-1].k
	}
}

// push appends key k to the tail, first making room in a full one: a tail
// of chunkLen keys becomes a block and starts again, empty, in the same
// storage; a shorter one grows as an appended slice does until it is half a
// chunk, then — where append would overshoot — to exactly chunkLen.
func (r *Recorder) push(k uint64) {
	if n := len(r.tail); n == cap(r.tail) {
		switch {
		case n == chunkLen:
			r.blocks = append(r.blocks, encode(r.tail))
			r.tail = r.tail[:0]
		case n > chunkLen/2:
			r.tail = append(make([]uint64, 0, chunkLen), r.tail...)
		default:
			t := slices.Grow(r.tail, 1)
			r.tail = t[:n:min(cap(t), chunkLen)]
		}
	}
	r.tail = append(r.tail, k) // into the room made: never reallocates
}

// Absorb merges every sample of src into r (recorders are merged when
// aggregating per-flow statistics into per-class or per-experiment views).
// The sum is added as a sum, so the result depends on the order of the
// merges, not of the samples. src, which is not r, is unchanged.
func (r *Recorder) Absorb(src *Recorder) {
	if src == nil {
		return
	}
	sum := r.sum + src.sum
	for _, s := range src.runs {
		r.add(value(s.k), s.k, s.c)
	}
	var keys [chunkLen]uint64
	for i := range src.blocks {
		for _, k := range src.blocks[i].decode(0, chunkLen, keys[:0]) {
			r.Add(value(k))
		}
	}
	for _, k := range src.tail {
		r.Add(value(k))
	}
	r.sum = sum
}

// Footprint returns how many samples r holds outside its runs and the
// bytes its sample storage occupies: the run table, the block table and
// each block's words at their size class, and the tail, each at its
// capacity.
func (r *Recorder) Footprint() (chunked, bytes int) {
	bytes = cap(r.runs)*int(unsafe.Sizeof(run{})) + cap(r.blocks)*int(unsafe.Sizeof(block{})) + cap(r.tail)*8
	for _, b := range r.blocks {
		bytes += cap(b.w) * 8
	}
	return len(r.blocks)<<chunkShift + len(r.tail), bytes
}

// Count returns the number of samples.
func (r *Recorder) Count() int {
	n := len(r.blocks)<<chunkShift + len(r.tail)
	for _, s := range r.runs {
		n += s.c
	}
	return n
}

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
// nearest-rank method, NaN ranking above every other sample. With no
// samples it returns 0.
func (r *Recorder) Percentile(p float64) float64 {
	v, _ := r.read(p)
	return v
}

// read is Percentile, also returning the block ranks it counted. A rank
// below the runs' total count is their value, found by walking them; any
// other rank, less that count, is a rank of the keys, which selectKey
// finds.
func (r *Recorder) read(p float64) (v float64, probes int) {
	all := r.Count()
	if all == 0 {
		return 0, 0
	}
	k := min(max(int(math.Ceil(p*float64(all)))-1, 0), all-1)
	for _, s := range r.runs {
		if k < s.c {
			return value(s.k), 0
		}
		k -= s.c
	}
	if !slices.IsSorted(r.tail) {
		sortKeys(r.tail)
	}
	K, probes := r.selectKey(k)
	return value(K), probes
}

// window is what a search knows of one block: lo of its keys lie below the
// lower bound, hi at or below the upper, and at at or below the probe.
type window struct{ lo, hi, at int32 }

// selectKey returns the key of rank k (from 0) among the blocks' and the
// sorted tail's: the smallest key K with at least k+1 keys at or below it.
// It narrows a key interval that holds K, from the smallest key to the
// largest, by probes: it counts the keys at or below a probe in each block
// that still has a key in the interval — between that block's counts at the
// two bounds — and in the tail, and the probe becomes a bound. A probe is
// the interval's middle; after one that left more than half the interval's
// keys in it, the next is a key the interval holds (see pivot, and below
// the upper bound), which ends a run of equal keys that halving would chase
// for every bit of the key space. So a search takes at most two probes per
// bit. Once at most gatherMax keys lie in the interval it decodes them and
// picks the rank among them; bounds that meet are the answer. K is always a
// stored key, so the answer is exact. It also returns how many block counts
// it made.
func (r *Recorder) selectKey(k int) (K uint64, probes int) {
	if len(r.blocks) == 0 {
		return r.tail[k], 0
	}
	var buf [256]window
	wins := slices.Grow(buf[:0], len(r.blocks))
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range r.blocks {
		b := &r.blocks[i]
		lo, hi = min(lo, b.base()), max(hi, b.last())
		wins = append(wins, window{0, chunkLen, 0})
	}
	tlo, thi := 0, len(r.tail) // the tail's keys in the interval
	if thi > 0 {
		lo, hi = min(lo, r.tail[0]), max(hi, r.tail[thi-1])
	}
	below, between := 0, len(r.blocks)<<chunkShift+thi // keys below lo, and from lo to hi
	for pivot := false; lo < hi && between > gatherMax; {
		mid := lo + (hi-lo)/2
		if pivot {
			mid = min(r.pivot(wins, tlo, thi), hi-1)
		}
		at := below
		for i := range wins {
			if w := &wins[i]; w.lo < w.hi {
				w.at = int32(r.blocks[i].rank(mid))
				at += int(w.at - w.lo)
				probes++
			}
		}
		tat, _ := slices.BinarySearch(r.tail[tlo:thi], mid+1) // the tail's keys at or below mid; mid < hi, so mid+1 does not wrap
		tat += tlo
		at += tat - tlo
		if at > k {
			hi, thi = mid, tat
		} else {
			lo, tlo = mid+1, tat
		}
		was := between
		below, between = tlo, thi-tlo
		for i := range wins {
			w := &wins[i]
			if w.lo < w.hi {
				if at > k {
					w.hi = w.at
				} else {
					w.lo = w.at
				}
			}
			below += int(w.lo)
			between += int(w.hi - w.lo)
		}
		pivot = !pivot && 2*between > was
	}
	if lo == hi {
		return lo, probes
	}
	var keys [gatherMax]uint64
	got := append(keys[:0], r.tail[tlo:thi]...)
	for i, w := range wins {
		if w.lo < w.hi {
			got = r.blocks[i].decode(int(w.lo), int(w.hi), got)
		}
	}
	slices.Sort(got)
	return got[k-below], probes
}

// pivot is a key in the search's interval: the middle one of the block or
// tail that holds the most keys there.
func (r *Recorder) pivot(wins []window, tlo, thi int) uint64 {
	best, most := -1, thi-tlo
	for i, w := range wins {
		if int(w.hi-w.lo) > most {
			best, most = i, int(w.hi-w.lo)
		}
	}
	if best < 0 {
		return r.tail[tlo+most/2]
	}
	var one [1]uint64
	m := int(wins[best].lo+wins[best].hi) / 2
	return r.blocks[best].decode(m, m+1, one[:0])[0]
}

// sortKeys sorts keys, at least one and at most chunkLen, in place: one counting
// pass places them by the top bucketShift bits of their offset from the
// smallest — 2·chunkLen buckets at most, over the keys' range — and an
// insertion sort then orders each bucket, moving no key out of its own.
// Delays spread over a block put a key or two in a bucket; should the
// insertions pass a few moves a key, as when one far key leaves nearly all
// in one bucket, a comparison sort finishes instead. The scratch is on the
// stack.
func sortKeys(keys []uint64) {
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	shift := uint(max(bits.Len64(hi-lo)-bucketShift, 0))
	var starts [1 << bucketShift]uint16
	buckets := starts[:(hi-lo)>>shift+1]
	for _, k := range keys {
		buckets[(k-lo)>>shift]++
	}
	n := uint16(0)
	for i, c := range buckets {
		buckets[i], n = n, n+c
	}
	var placed [chunkLen]uint64
	for _, k := range keys {
		h := (k - lo) >> shift
		placed[buckets[h]] = k
		buckets[h]++
	}
	copy(keys, placed[:len(keys)])
	for i, moves := 1, 0; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
		if moves += i - j; moves > 4*len(keys) {
			slices.Sort(keys)
			return
		}
	}
}

// block is chunkLen keys, sorted and coded as partitioned Elias–Fano codes
// (Elias, JACM 1974; Fano 1971; Ottaviano and Venturini, SIGIR 2014). The
// keys fall into segments, each a run of whole binades (keys sharing their
// top 12 bits, a float's sign and exponent): one per binade the keys
// occupy, but that the encoder joins a binade to the segment before it when
// that costs no more bits (see encode). A segment's keys are codes over
// its smallest key, its base: each key less the base, shifted right by t,
// the trailing zeros all its offsets share. A simulated delay, now −
// CreatedAt − a flow's fixed delay, lies on the clock's grid less a
// constant, so inside one binade its offsets share the grid's low bits,
// 15.5 of them on average in the Table-3 cell. Each code is split into its
// low l bits, packed in key order after the previous segment's, and its
// high part h, written in unary as a one at bit zeros + h + (the key's
// index in the block) of the block's one high vector, zeros being the high
// vector's zeros before the segment's buckets; a zero ends each bucket. l
// is the fewest bits that leave the segment's high parts below twice its
// count, so a segment of n keys takes n·(l+1) to n·(l+3) bits besides its
// 128-bit table entry, and the high vector at most 3·chunkLen.
type block struct {
	w    []uint64  // the segment table (two words a segment, see seg), the low parts, then the high vector; allocated to its size class
	skip [6]uint16 // the high vector's zeros before words 0, 8, …, 40 (those past its end: every zero of its words)
	segs uint16    // the segments
	hw   uint16    // the high vector's first word
}

// segment is one of a block's segments as its table holds it: its base,
// then a word packing the rest (see seg).
type segment struct {
	base  uint64
	start int  // its first key's index in the block
	t, l  uint // the shift and the low bits
	hmax  int  // the largest high part
	zeros int  // the high vector's zeros before the segment's buckets
	off   uint // where in the block's words, in bits, key i's low part is: off + i·l
}

// Where a segment's table word holds its fields: start, t and l, hmax,
// zeros and lows take 11, 6, 6, 11, 12 and 16 bits. hmax and zeros are
// below 2·chunkLen, lows below 62·chunkLen (l ≤ 62 for a segment of two or
// more keys, 0 for one).
const (
	segT     = 11
	segL     = segT + 6
	segHmax  = segL + 6
	segZeros = segHmax + 11
	segLows  = segZeros + 12
)

// seg is segment j.
func (b *block) seg(j int) segment {
	m := b.w[2*j+1]
	s := segment{
		base:  b.w[2*j],
		start: int(m & (1<<segT - 1)),
		t:     uint(m >> segT & 63),
		l:     uint(m >> segL & 63),
		hmax:  int(m >> segHmax & (1<<11 - 1)),
		zeros: int(m >> segZeros & (1<<12 - 1)),
	}
	s.off = uint(b.segs)<<7 + uint(m>>segLows) - uint(s.start)*s.l // the low parts start after the table; wraps back at key start
	return s
}

// start is where segment j's keys start, chunkLen for j = segs.
func (b *block) start(j int) int {
	if j < int(b.segs) {
		return int(b.w[2*j+1] & (1<<segT - 1))
	}
	return chunkLen
}

// part is a segment the encoder plans: the sorted keys [start, end), whose
// offsets from keys[start] share t trailing zeros (64 if every offset is 0).
type part struct {
	start, end int
	t          uint
}

// segHeader is what a segment's table entry costs, in bits.
const segHeader = 128

// shape returns p's low bits and largest high part: l the fewest that leave
// the high parts of its codes below twice its count.
func (p part) shape(keys []uint64) (l uint, hmax uint64) {
	top, n := (keys[p.end-1]-keys[p.start])>>p.t, uint64(2*(p.end-p.start))
	l = uint(max(bits.Len64(top)-bits.Len64(n), 0))
	if top>>l >= n {
		l++
	}
	return l, top >> l
}

// cost is p's bits as a segment, its table entry included.
func (p part) cost(keys []uint64) int {
	l, hmax := p.shape(keys)
	return segHeader + (p.end-p.start)*int(l+1) + int(hmax) + 1
}

// join is p and q, the part after it, as one part: their offsets from p's
// base share the trailing zeros of q's own and of q's base less p's.
func (p part) join(q part, keys []uint64) part {
	return part{p.start, q.end, min(p.t, q.t, uint(bits.TrailingZeros64(keys[q.start]-keys[p.start])))}
}

// zeros is what a block's words start from: the most a block takes, one
// segment's table entry, 53 low bits a key and a high vector of 3·chunkLen
// bits (encode never codes more words than one segment of every key).
// (slices.Grow would make the same allocation, but under the race detector
// its temporary slice escapes too.)
var zeros [2 + (64-bucketShift)<<(chunkShift-6) + 3*chunkLen>>6]uint64

// encode sorts keys (chunkLen of them) and codes them as a block. It plans
// one part per binade and joins each to the part before it while one costs
// no more bits than two; should the plan cost more words than one segment
// of every key, that is the block instead, so a block never takes more than
// a single Elias–Fano code of its keys and one table entry.
func encode(keys []uint64) block {
	sortKeys(keys)
	var buf [32]part
	parts := buf[:0]
	whole := part{0, chunkLen, 64}
	keys = keys[:chunkLen]
	for i := 0; i < chunkLen; {
		base, or, end := keys[i], uint64(0), i+1
		for ; end < chunkLen && (keys[end]^base)>>52 == 0; end++ {
			or |= keys[end] - base
		}
		p := part{i, end, uint(bits.TrailingZeros64(or))}
		i = end
		whole.t = min(whole.t, p.t, uint(bits.TrailingZeros64(keys[p.start]-keys[0])))
		if n := len(parts); n > 0 {
			if j := parts[n-1].join(p, keys); j.cost(keys) <= parts[n-1].cost(keys)+p.cost(keys) {
				parts[n-1] = j
				continue
			}
		}
		parts = append(parts, p)
	}
	if len(parts) > 1 && blockWords(parts, keys) >= blockWords([]part{whole}, keys) {
		parts = append(parts[:0], whole)
	}
	b := block{segs: uint16(len(parts))}
	b.w = append([]uint64(nil), zeros[:blockWords(parts, keys)]...) // append rounds the capacity up to the size class
	lows, nz := uint(0), 0
	for j, p := range parts {
		l, hmax := p.shape(keys)
		if p.t == 64 {
			p.t = 0 // every offset is 0: no shift to record
		}
		b.w[2*j] = keys[p.start]
		b.w[2*j+1] = uint64(p.start) | uint64(p.t)<<segT | uint64(l)<<segL | hmax<<segHmax | uint64(nz)<<segZeros | uint64(lows)<<segLows
		lows += uint(p.end-p.start) * l
		nz += int(hmax) + 1
	}
	b.hw = uint16(2*len(parts) + int(lows+63)>>6)
	high := b.high()
	for j, p := range parts {
		s := b.seg(j)
		s.code(b.w, high, keys[p.start:p.end])
	}
	for j := 1; j < len(b.skip); j++ {
		words := high[:min(j<<3, len(high))]
		b.skip[j] = uint16(len(words) << 6)
		for _, word := range words {
			b.skip[j] -= uint16(bits.OnesCount64(word))
		}
	}
	return b
}

// code writes keys, all of segment s in order, into a block's words w and
// its high vector high: each key's low part at its place in w, its one in
// high.
func (s *segment) code(w, high, keys []uint64) {
	base, t, l, mask := s.base, s.t&63, s.l&63, uint64(1)<<s.l-1 // t, l < 64: shifts without the compiler's guard
	off, one := s.off+uint(s.start)*l, s.zeros+s.start           // where the next key's low part goes, and its one but for its high part
	for _, k := range keys {
		v := (k - base) >> t
		i, sh := off>>6, off&63
		w[i] |= v & mask << sh
		w[i+1] |= v & mask >> (64 - sh) // nothing, but for a low part that spans two words
		h := one + int(v>>l)
		high[h>>6] |= 1 << (h & 63)
		off, one = off+l, one+1
	}
}

// blockWords is the words a block of parts takes: its table, its low parts
// and its high vector.
func blockWords(parts []part, keys []uint64) int {
	lows, highs := 0, 0
	for _, p := range parts {
		l, hmax := p.shape(keys)
		lows += (p.end - p.start) * int(l)
		highs += p.end - p.start + int(hmax) + 1
	}
	return 2*len(parts) + (lows+63)>>6 + (highs+63)>>6
}

// high is the block's high vector.
func (b *block) high() []uint64 { return b.w[b.hw:] }

// low is the low part of key i of segment s.
func (b *block) low(s *segment, i int) uint64 {
	off := s.off + uint(i)*s.l
	w, sh := off>>6, off&63
	return (b.w[w]>>sh | b.w[w+1]<<(64-sh)) & (1<<s.l - 1)
}

// keyAt is key i, of segment s, whose one is at bit pos of the high vector.
func (b *block) keyAt(s *segment, pos, i int) uint64 {
	return s.base + (uint64(pos-i-s.zeros)<<s.l|b.low(s, i))<<s.t
}

// base is the block's smallest key.
func (b *block) base() uint64 { return b.w[0] }

// last is the block's largest key.
func (b *block) last() uint64 {
	s := b.seg(int(b.segs) - 1)
	return s.base + (uint64(s.hmax)<<s.l|b.low(&s, chunkLen-1))<<s.t
}

// find is the segment that holds key k's place: the last whose base is at
// most k, or -1 if k is below the block.
func (b *block) find(k uint64) int {
	i := 0 // without a branch, which probes across a block's segments mispredict
	for n := int(b.segs); n > 1; n -= n >> 1 {
		_, above := bits.Sub64(k, b.w[2*(i+n>>1)], 0)
		i += n >> 1 &^ -int(above)
	}
	_, above := bits.Sub64(k, b.w[2*i], 0)
	return i - int(above)
}

// bucket returns where bucket g of the high vector starts, just past its
// g-th zero, and how many keys lie in earlier buckets; g is at most the
// last segment's zeros + hmax. The skip counts find the group of eight
// words that holds the zero.
func (b *block) bucket(g int) (pos, i int) {
	if g == 0 {
		return 0, 0
	}
	j := 0
	for _, z := range b.skip[1:] {
		if int(z) < g {
			j++
		}
	}
	high := b.high()
	for w, need := j<<3, g-int(b.skip[j]); ; w++ {
		z := 64 - bits.OnesCount64(high[w])
		if need <= z {
			pos = w<<6 + selectBit(^high[w], need-1) + 1
			return pos, pos - g
		}
		need -= z
	}
}

// rank is how many of the block's keys are at or below k, counted without
// decoding them: every key of an earlier segment, then every key in a
// lower bucket of k's segment, then — by bisection, since one bucket may
// hold every key — those of k's bucket whose low parts are at most k's
// code's.
func (b *block) rank(k uint64) int {
	j := b.find(k)
	if j < 0 {
		return 0
	}
	s := b.seg(j)
	c := (k - s.base) >> s.t // the codes at or below c are the keys at or below k
	h := c >> s.l
	if h > uint64(s.hmax) {
		return b.start(j + 1)
	}
	pos, i := b.bucket(s.zeros + int(h))
	high, n := b.high(), 0 // the bucket's keys: the ones from pos on
	for w, sh := pos>>6, uint(pos&63); ; w, sh = w+1, 0 {
		ones := bits.TrailingZeros64(^(high[w] >> sh))
		if n += ones; ones < 64-int(sh) {
			break
		}
	}
	cl := c & (1<<s.l - 1)
	for n > 0 {
		if h := n >> 1; b.low(&s, i+h) <= cl {
			i, n = i+h+1, n-h-1
		} else {
			n = h
		}
	}
	return i
}

// decode appends keys i..j-1 to dst, ascending: the high vector's ones are
// counted a word at a time up to key i, then walked, and each key is
// decoded by the segment it lies in.
func (b *block) decode(i, j int, dst []uint64) []uint64 {
	g := 0 // key i's segment: the last that starts at or before it
	for n := int(b.segs); n > 0; {
		if h := n >> 1; b.start(g+h) <= i {
			g, n = g+h+1, n-h-1
		} else {
			n = h
		}
	}
	g--
	s, next := b.seg(g), b.start(g+1)
	high := b.high()
	w, c := 0, i
	for n := bits.OnesCount64(high[0]); c >= n; n = bits.OnesCount64(high[w]) {
		c, w = c-n, w+1
	}
	word := high[w] &^ (1<<selectBit(high[w], c) - 1) // key i's one and those after it
	for at := i; at < j; at++ {
		if at == next {
			g++
			s, next = b.seg(g), b.start(g+1)
		}
		for word == 0 {
			w++
			word = high[w]
		}
		dst = append(dst, b.keyAt(&s, w<<6+bits.TrailingZeros64(word), at))
		word &= word - 1
	}
	return dst
}

// selectBit is the position of the j-th (from 0) set bit of x, which has
// more than j, found without a branch (Vigna, "Broadword implementation of
// rank/select queries", WEA 2008): the bytes' running popcounts, compared
// with j all at once, count the bytes below the one that holds the bit,
// and a table selects within that byte.
func selectBit(x uint64, j int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	c := x - x>>1&0x5555555555555555
	c = c&0x3333333333333333 + c>>2&0x3333333333333333
	c = (c + c>>4) & 0x0f0f0f0f0f0f0f0f * ones // byte i: the set bits of bytes 0..i
	below := uint(bits.OnesCount64((uint64(j)*ones|highs-c)&highs)) << 3
	j -= int(c << 8 >> below & 0xff)
	return int(below) + int(selectInByte[x>>below&0xff<<3|uint64(j)])
}

// selectInByte[x<<3 | j] is the position of the j-th set bit of the byte x.
var selectInByte = func() (t [256 << 3]uint8) {
	for x := range 256 {
		for i, j := 0, 0; i < 8; i++ {
			if x>>i&1 == 1 {
				t[x<<3|j] = uint8(i)
				j++
			}
		}
	}
	return t
}()
