package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder()
	if r.Count() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Percentile(0) != 0 || r.Percentile(0.5) != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.Count() != 5 {
		t.Fatalf("Count = %d", r.Count())
	}
	if r.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", r.Mean())
	}
	if r.Max() != 5 || r.Percentile(0) != 1 {
		t.Fatalf("max/min = %v/%v, want 5/1", r.Max(), r.Percentile(0))
	}
}

func TestRecorderPercentileNearestRank(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.999, 100}, {1, 100}, {0.25, 25},
	}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRecorderAddAfterPercentile(t *testing.T) {
	// Percentile reorders in place; adding afterwards must still work.
	r := NewRecorder()
	r.Add(3)
	r.Add(1)
	_ = r.Percentile(0.5)
	r.Add(2)
	if got := r.Percentile(1); got != 3 {
		t.Fatalf("Percentile(1) = %v, want 3", got)
	}
	if got := r.Percentile(0); got != 1 {
		t.Fatalf("Percentile(0) = %v, want 1", got)
	}
}

// Property: mean/max/min/percentile agree with direct computation on the
// sample slice.
func TestRecorderMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		r := NewRecorder()
		sum := 0.0
		for _, x := range clean {
			r.Add(x)
			sum += x
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		if r.Max() != sorted[len(sorted)-1] || r.Percentile(0) != sorted[0] {
			return false
		}
		if math.Abs(r.Mean()-sum/float64(len(clean))) > 1e-9*(1+math.Abs(sum)) {
			return false
		}
		return r.Percentile(0.5) == sorted[int(math.Ceil(0.5*float64(len(sorted))))-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// nearestRank is the reference Percentile: full sort, then index.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	return sorted[min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)]
}

// rankP is a p whose nearest rank among n samples is exactly k.
func rankP(k, n int) float64 { return (float64(k) + 0.5) / float64(n) }

func recorderOf(xs []float64) *Recorder {
	r := NewRecorder()
	for _, x := range xs {
		r.Add(x)
	}
	return r
}

// storageBytes is what r's sample storage occupies: the run table, every
// chunk at its capacity, and the chunk table.
func storageBytes(r *Recorder) int {
	b := cap(r.runs)*int(unsafe.Sizeof(run{})) + cap(r.chunks)*24
	for _, c := range r.chunks {
		b += cap(c) * 8
	}
	return b
}

var rankShapes = []struct {
	name string
	fill func(rng *rand.Rand, xs []float64)
}{
	{"random", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
	}},
	{"sorted", func(_ *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = float64(i)
		}
	}},
	{"reversed", func(_ *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = float64(len(xs) - i)
		}
	}},
	{"all-equal", func(_ *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = 0.25
		}
	}},
	{"two-valued", func(rng *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = float64(rng.Intn(2))
		}
	}},
	{"organ-pipe", func(_ *rand.Rand, xs []float64) {
		for i := range xs {
			xs[i] = float64(min(i, len(xs)-1-i))
		}
	}},
}

// rankSizes straddle the insertion-sort cutoff and chunk boundaries: the
// first chunk's, and those of 4 and 12 chunks (the sizes this test used
// when a chunk held 4096 samples).
var rankSizes = []int{1, 15, 16, 17, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7,
	4*chunkLen - 1, 4 * chunkLen, 4*chunkLen + 1, 12*chunkLen + 7}

// Every rank of a recorder, asked in shuffled order so each answer is
// selected between ranks placed by earlier ones, matches sort-then-index;
// so do the extreme and middle ranks asked first of a fresh recorder, where
// the selection spans every chunk.
func TestRecorderEveryRankMatchesSort(t *testing.T) {
	for _, shape := range rankShapes {
		for _, n := range rankSizes {
			t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				xs := make([]float64, n)
				shape.fill(rng, xs)
				sorted := slices.Clone(xs)
				slices.Sort(sorted)

				for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
					if k < 0 || k >= n {
						continue
					}
					if got := recorderOf(xs).Percentile(rankP(k, n)); got != sorted[k] {
						t.Fatalf("fresh recorder, rank %d = %v, want %v", k, got, sorted[k])
					}
				}
				r := recorderOf(xs)
				for _, k := range rng.Perm(n) {
					if got := r.Percentile(rankP(k, n)); got != sorted[k] {
						t.Fatalf("rank %d = %v, want %v", k, got, sorted[k])
					}
				}
				if got, want := r.Percentile(0), sorted[0]; got != want {
					t.Fatalf("Percentile(0) = %v, want %v", got, want)
				}
				if got, want := r.Percentile(1), sorted[n-1]; got != want {
					t.Fatalf("Percentile(1) = %v, want %v", got, want)
				}
			})
		}
	}
}

// Add, Percentile and Absorb interleaved: after every step the recorder
// agrees with a plain slice of everything it was given. The Absorb sizes
// cross a chunk boundary of the destination, of the source, and of both,
// and the source — already reordered by its own Percentile — is unchanged.
func TestRecorderInterleavedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := NewRecorder()
	var all []float64
	check := func(step string) {
		t.Helper()
		sorted := slices.Clone(all)
		slices.Sort(sorted)
		if r.Count() != len(all) || r.Percentile(0) != sorted[0] || r.Max() != sorted[len(sorted)-1] {
			t.Fatalf("%s: Count/min/Max = %d/%v/%v, want %d/%v/%v", step,
				r.Count(), r.Percentile(0), r.Max(), len(all), sorted[0], sorted[len(sorted)-1])
		}
		for _, p := range []float64{0, 0.5, 0.99, 0.999, rng.Float64(), rng.Float64(), 0.5, 1} {
			if got, want := r.Percentile(p), nearestRank(sorted, p); got != want {
				t.Fatalf("%s: Percentile(%v) of %d = %v, want %v", step, p, len(all), got, want)
			}
		}
	}
	add := func(n int) {
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()
			r.Add(x)
			all = append(all, x)
		}
		check(fmt.Sprintf("add %d", n))
	}
	absorb := func(n int) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		src := recorderOf(xs)
		mid := src.Percentile(0.5)
		r.Absorb(src)
		all = append(all, xs...)
		check(fmt.Sprintf("absorb %d", n))
		if src.Count() != n || src.Percentile(0.5) != mid {
			t.Fatalf("absorb %d changed its source", n)
		}
	}
	add(3)
	absorb(5)            // the first chunk regrows under Absorb
	add(chunkLen - 10)   // 2 short of the first boundary
	absorb(7)            // crosses the destination's boundary
	absorb(chunkLen + 9) // crosses the source's boundary, and the destination's again
	add(1)
	absorb(3*chunkLen + 1)
	add(chunkLen)
	r.Absorb(nil)
	r.Absorb(NewRecorder())
	check("absorb nothing")

	// The mean survives the merges too.
	var sum float64
	for _, x := range all {
		sum += x
	}
	mean := sum / float64(len(all))
	if got := r.Mean(); math.Abs(got-mean) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, mean)
	}
}

// waitShapes are delay streams as measured per workload at seed 1992: the
// share of samples that waited nowhere, recorded as 0 or one of a few float
// residues of it (distinct values in all), the rest queueing delays.
// mesh_sharded's 22 values are at most 6 per flow, and a recorder is a
// flow's.
var waitShapes = []struct {
	name     string
	share    float64
	distinct int
}{
	{"million_members", 1, 12},
	{"churn_control", 0.993, 22},
	{"serve_live", 0.865, 7},
	{"mesh_sharded", 0.232, 6},
	{"chain_batch", 0.005, 6},
}

// waitSample draws one sample of a wait shape: with probability share one
// of distinct sub-ns values — 0 and residues up to 5e-15 s — else a
// queueing delay, exponential with mean 1 ms.
func waitSample(rng *rand.Rand, share float64, distinct int) float64 {
	if rng.Float64() < share {
		return float64(rng.Intn(distinct)) * 5e-15 / float64(distinct)
	}
	return 1e-3 * rng.ExpFloat64()
}

// sumOf is xs summed in order, as Add sums them.
func sumOf(xs []float64) (sum float64) {
	for _, x := range xs {
		sum += x
	}
	return sum
}

// checkEveryRank requires r to hold xs, whose sum is sum: Count, Max and
// Mean, and every rank, asked in shuffled order, against sort-then-index.
func checkEveryRank(t *testing.T, rng *rand.Rand, r *Recorder, xs []float64, sum float64) {
	t.Helper()
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	n := len(sorted)
	if r.Count() != n || r.Max() != sorted[n-1] || r.Mean() != sum/float64(n) {
		t.Fatalf("Count/Max/Mean = %d/%v/%v, want %d/%v/%v",
			r.Count(), r.Max(), r.Mean(), n, sorted[n-1], sum/float64(n))
	}
	for _, k := range rng.Perm(n) {
		if got := r.Percentile(rankP(k, n)); got != sorted[k] {
			t.Fatalf("rank %d of %d = %v, want %v", k, n, got, sorted[k])
		}
	}
}

// addReading adds xs to r and to all, which it returns, and after every
// step samples reads 0.5, 0.99, 0.999 and a random rank against
// sort-then-index of all: live reads between the adds.
func addReading(t *testing.T, rng *rand.Rand, r *Recorder, all, xs []float64, step int) []float64 {
	t.Helper()
	for i, x := range xs {
		r.Add(x)
		all = append(all, x)
		if (i+1)%step != 0 {
			continue
		}
		sorted := slices.Clone(all)
		slices.Sort(sorted)
		for _, p := range []float64{0.5, 0.99, 0.999, rng.Float64()} {
			if got, want := r.Percentile(p), nearestRank(sorted, p); got != want {
				t.Fatalf("after %d samples: Percentile(%v) = %v, want %v", len(all), p, got, want)
			}
		}
	}
	return all
}

// Recorders that split their samples between runs and chunks answer every
// rank as sort-then-index, with live reads between the adds: on the
// measured wait shapes; on a strictly decreasing stream, where every Add
// past the first maxRuns makes a new run and pushes the largest out; on a
// run of 10⁵ samples pushed out at once, after reads have placed ranks in
// the chunks; with NaN mixed in, where the ranks the runs hold are the
// smallest of the other samples and no read panics; and across an Absorb
// of one split recorder into another.
func TestRecorderRunsMatchSort(t *testing.T) {
	const n, step = 20_000, 997
	for _, sh := range waitShapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.distinct)))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = waitSample(rng, sh.share, sh.distinct)
			}
			r := NewRecorder()
			addReading(t, rng, r, nil, xs, step)
			if r.runN < int(0.95*sh.share*n) {
				t.Fatalf("runs hold %d samples, want about %.0f", r.runN, sh.share*n)
			}
			checkEveryRank(t, rng, r, xs, sumOf(xs))
		})
	}
	t.Run("decreasing", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		r := NewRecorder()
		xs := make([]float64, 5000)
		for i := range xs {
			xs[i] = float64(len(xs) - i)
			r.Add(xs[i])
			if len(r.runs) != min(i+1, maxRuns) || r.n != max(i+1-maxRuns, 0) {
				t.Fatalf("after %d samples: %d runs, %d chunked", i+1, len(r.runs), r.n)
			}
		}
		r = NewRecorder()
		checkEveryRank(t, rng, r, addReading(t, rng, r, nil, xs, 101), sumOf(xs))
	})
	t.Run("evict-1e5", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		var xs []float64
		for i := 1; i < maxRuns; i++ {
			xs = append(xs, float64(i))
		}
		for range 100_000 {
			xs = append(xs, maxRuns)
		}
		for range 3000 {
			xs = append(xs, maxRuns+1+rng.ExpFloat64())
		}
		r := NewRecorder()
		all := addReading(t, rng, r, nil, xs, 1999)
		if r.runN != 100_000+maxRuns-1 {
			t.Fatalf("runs hold %d samples, want %d", r.runN, 100_000+maxRuns-1)
		}
		all = addReading(t, rng, r, all, []float64{0.5}, 1)
		if r.runN != maxRuns || r.n != 103_000 {
			t.Fatalf("after the push: %d samples in runs, %d chunked; want %d, %d", r.runN, r.n, maxRuns, 103_000)
		}
		checkEveryRank(t, rng, r, all, sumOf(all))
	})
	t.Run("NaN", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, share := range []float64{0.001, 0.01, 0.5} {
			r := NewRecorder()
			var clean []float64
			for i := range n {
				if rng.Float64() < share {
					r.Add(math.NaN())
				} else {
					x := waitSample(rng, 0.865, 7)
					r.Add(x)
					clean = append(clean, x)
				}
				if i%step == 0 {
					for _, p := range []float64{0, 0.5, 0.99, 0.999, 1, rng.Float64()} {
						_ = r.Percentile(p)
					}
				}
			}
			if r.Count() != n {
				t.Fatalf("NaN share %v: Count = %d, want %d", share, r.Count(), n)
			}
			slices.Sort(clean)
			for _, k := range rng.Perm(r.runN) {
				if got := r.Percentile(rankP(k, n)); got != clean[k] {
					t.Fatalf("NaN share %v: rank %d = %v, want %v", share, k, got, clean[k])
				}
			}
			for k := range n {
				_ = r.Percentile(rankP(k, n))
			}
		}
	})
	t.Run("absorb", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		var xs, ys []float64
		for range n {
			xs = append(xs, waitSample(rng, 0.232, 6))
			ys = append(ys, 1e-16+waitSample(rng, 0.865, 7))
		}
		dst, src := NewRecorder(), NewRecorder()
		all := addReading(t, rng, dst, nil, xs, step)
		addReading(t, rng, src, nil, ys, step)
		srcMid := src.Percentile(0.5)
		dst.Absorb(src)
		if src.Count() != len(ys) || src.Percentile(0.5) != srcMid {
			t.Fatal("Absorb changed its source")
		}
		sum := sumOf(xs) + sumOf(ys)
		all = append(all, ys...)
		checkEveryRank(t, rng, dst, all, sum)
		tail := make([]float64, 3000)
		for i := range tail {
			tail[i] = waitSample(rng, 0.5, 9)
		}
		all = addReading(t, rng, dst, all, tail, 499)
		for _, x := range tail {
			sum += x
		}
		checkEveryRank(t, rng, dst, all, sum)
	})
}

// medianOf3Killer builds the input that defeats selectRank's pivot rule for
// a high rank, by playing its passes forward: give the first and middle
// element of the current span the two smallest values not yet handed out,
// so the median of three is the span's second smallest and the partition
// peels off two elements — after swapping the span's second element with
// its middle one, which idx (original index now at each position) tracks.
// Unbounded quickselect visits about n*n/4 elements on it.
func medianOf3Killer(n int) []float64 {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n) // larger than everything handed out below
	}
	v := 0.0
	for lo, hi := 0, n-1; hi-lo >= 16; lo += 2 {
		mid := (lo + hi) / 2
		xs[idx[lo]], xs[idx[mid]] = v, v+1
		v += 2
		idx[lo+1], idx[mid] = idx[mid], idx[lo+1]
	}
	return xs
}

// The bounded-depth fallback holds on the input built to need it: at most
// 2*log2(n) partition passes of at most n, then a sort charged
// 2*n*log2(n) — 4*n*log2(n) element visits, against n*n/4 without it.
func TestRecorderKillerSequenceStaysInBudget(t *testing.T) {
	const n = 200_000
	xs := medianOf3Killer(n)
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	r := recorderOf(xs)
	k := n - n/1000
	visits := r.selectRank(0, n-1, k)
	if got := r.at(k); got != sorted[k] {
		t.Fatalf("rank %d = %v, want %v", k, got, sorted[k])
	}
	log2 := bits.Len(uint(n))
	if budget := 4 * n * log2; visits > budget {
		t.Fatalf("%d element visits, budget %d", visits, budget)
	}
	if visits < n*log2 {
		t.Fatalf("%d element visits: the sequence no longer defeats the pivot rule, so this test proves nothing", visits)
	}
}

// NaN compares false with everything, so no ordering invariant holds around
// it; selection must still end and stay inside the samples.
func TestRecorderNaNSamplesAreSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 16, 17, 100, chunkLen + 1, 3*chunkLen + 7} {
		for _, share := range []float64{0.01, 0.5, 1} {
			r := NewRecorder()
			for i := 0; i < n; i++ {
				if rng.Float64() < share {
					r.Add(math.NaN())
				} else {
					r.Add(rng.Float64())
				}
			}
			for _, p := range []float64{0.5, 0.999, 0.01, rng.Float64(), 0, 1} {
				_ = r.Percentile(p)
			}
			if r.n > 0 { // over ranks the calls above disordered again
				r.selectRank(0, r.n-1, r.n/2)
			}
		}
	}
}

// Growth copies nothing but the first chunk's regrowths: a million Adds
// allocate the 8 MB they hold, within 5 % (the chunk table), plus those
// regrowths. Append-growth of one slice allocated about five times the 8 MB.
func TestRecorderGrowthCopiesNothing(t *testing.T) {
	const n = 1_000_000
	r := NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(1.05*8*n) + 2*8*chunkLen; got > limit {
		t.Fatalf("1M Adds allocated %d bytes, want <= %d", got, limit)
	}
	if r.Count() != n {
		t.Fatalf("Count = %d", r.Count())
	}
}

// A million Adds drawn from 12 distinct sub-ns values — million_members'
// shape, where no packet queues — allocate the run table and nothing else:
// what appending 12 runs one at a time allocates, 496 B; before the runs
// counted them they allocated the 8 MB they held. The count reads the whole
// process's allocations, so a stray runtime object may land in it: the run
// is repeated on a fresh recorder, up to three times, and passes if one
// count is within the table.
func TestRecorderRepeatedValuesAllocateOnlyRuns(t *testing.T) {
	const n, distinct, attempts = 1_000_000, 12, 3
	limit := uint64(0) // append doubles a small slice: capacities 1, 2, 4, 8, 16
	for c := 1; c < 2*distinct; c *= 2 {
		limit += uint64(c) * uint64(unsafe.Sizeof(run{}))
	}
	var got uint64
	for range attempts {
		rng := rand.New(rand.NewSource(12))
		r := NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			r.Add(waitSample(rng, 1, distinct))
		}
		runtime.ReadMemStats(&after)
		if r.Count() != n || len(r.runs) != distinct {
			t.Fatalf("Count = %d in %d runs, want %d in %d", r.Count(), len(r.runs), n, distinct)
		}
		if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
			return
		}
	}
	t.Errorf("1M Adds of %d distinct values allocated %d bytes in each of %d runs, want <= %d",
		distinct, got, attempts, limit)
}

// A recorder of a dozen samples costs about a dozen samples: a scenario
// with tens of thousands of short-lived flows has as many of these.
func TestSmallRecorderStaysSmall(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 12; i++ {
		r.Add(float64(i))
	}
	if got := storageBytes(r); got > 256 {
		t.Fatalf("12 samples occupy %d bytes of sample storage, want <= 256", got)
	}
}

// One operation is one Add; a fresh recorder every million keeps the
// benchmark's own memory bounded. distinct draws every sample from Exp(1),
// so all but the smallest go to the chunks: B/op is the 8 bytes a sample
// occupies plus whatever growth copies. sub-ns is the serve_live shape,
// 86.5 % of the samples one of 7 sub-ns values that the runs count.
func BenchmarkRecorderAdd(b *testing.B) {
	for _, bm := range []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"distinct", func(rng *rand.Rand) float64 { return rng.ExpFloat64() }},
		{"sub-ns", func(rng *rand.Rand) float64 { return waitSample(rng, 0.865, 7) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			xs := make([]float64, 1<<16)
			for i := range xs {
				xs[i] = bm.draw(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var r *Recorder
			for i := 0; i < b.N; i++ {
				if i%1_000_000 == 0 {
					r = NewRecorder()
				}
				r.Add(xs[i&(len(xs)-1)])
			}
		})
	}
}

var percentileSink float64

// One operation is a report's three ranks of a million fresh samples.
func BenchmarkRecorderPercentiles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := recorderOf(xs)
		b.StartTimer()
		percentileSink = r.Percentile(0.50) + r.Percentile(0.99) + r.Percentile(0.999)
	}
}

// liveStreams are a live reader's streams: what round t (1..40) adds, given
// the smallest sample so far, and what the recorder holds before round 1
// (nil: Exp(1) samples). outrun moves the ranks most, each round's samples
// above every earlier one. sub-ns is the serve_live shape: 86 % of the
// samples are one of 7 sub-ns values, which the runs count, so a round adds
// about 14 % of its samples to the chunks.
var liveStreams = []struct {
	name  string
	next  func(rng *rand.Rand, t int, min float64) float64
	first func(rng *rand.Rand) float64
}{
	{"stationary", func(rng *rand.Rand, _ int, _ float64) float64 { return rng.ExpFloat64() }, nil},
	{"rising", func(rng *rand.Rand, t int, _ float64) float64 { return rng.ExpFloat64() + 0.01*float64(t) }, nil},
	{"below-minimum", func(rng *rand.Rand, t int, min float64) float64 {
		if t == 20 {
			return min - 1 - rng.Float64()
		}
		return rng.ExpFloat64()
	}, nil},
	{"outrun", func(rng *rand.Rand, t int, _ float64) float64 { return 100 + float64(t) + rng.Float64() }, nil},
	{"sub-ns", func(rng *rand.Rand, _ int, _ float64) float64 { return waitSample(rng, 0.86, 7) },
		func(rng *rand.Rand) float64 { return waitSample(rng, 0.86, 7) }},
}

// mergeSorted merges sorted xs into sorted all, in place from the back.
func mergeSorted(all, xs []float64) []float64 {
	i, j := len(all)-1, len(xs)-1
	all = append(all, xs...)
	for k := len(all) - 1; j >= 0; k-- {
		if i >= 0 && all[i] > xs[j] {
			all[k], i = all[i], i-1
		} else {
			all[k], j = xs[j], j-1
		}
	}
	return all
}

// liveReadPs are the ranks a report reads.
var liveReadPs = [...]float64{0.5, 0.99, 0.999}

// TestRecorderLiveReadsCostWhatIsHeld bounds a live reader's reads: a
// recorder of n = 2²⁰ samples read at 0.5, 0.99 and 0.999, then 40 rounds
// each adding m = 4 096 samples and reading the same ranks. A round's first
// read that reaches the chunks selects over every sample they hold, and the
// others search only between placed neighbours, so a round visits at most
// 8·c samples, c being the samples the chunks hold; every answer is
// sort-then-index. A bound in c does not depend on n, so one size is run.
func TestRecorderLiveReadsCostWhatIsHeld(t *testing.T) {
	const n, m, rounds = 1 << 20, 4096, 40
	for _, st := range liveStreams {
		t.Run(fmt.Sprintf("%s/%d", st.name, n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			r := NewRecorder()
			all := make([]float64, n, n+rounds*m)
			for i := range all {
				if st.first != nil {
					all[i] = st.first(rng)
				} else {
					all[i] = rng.ExpFloat64()
				}
				r.Add(all[i])
			}
			slices.Sort(all)
			for _, p := range liveReadPs {
				r.Percentile(p)
			}
			xs := make([]float64, m)
			worst := 0.0
			for round := 1; round <= rounds; round++ {
				for i := range xs {
					xs[i] = st.next(rng, round, all[0])
					r.Add(xs[i])
				}
				slices.Sort(xs)
				all = mergeSorted(all, xs)
				visits := 0
				for _, p := range liveReadPs {
					got, v := r.read(p)
					visits += v
					if want := nearestRank(all, p); got != want {
						t.Fatalf("round %d: Percentile(%v) = %v, want %v", round, p, got, want)
					}
				}
				if visits > 8*r.n {
					t.Errorf("round %d visited %d samples, budget 8·%d", round, visits, r.n)
				}
				worst = max(worst, float64(visits)/float64(r.n))
			}
			t.Logf("worst round: %.2f·c visits", worst)
		})
	}
}

// Storage costs what it holds: the run table holds at most maxRuns runs;
// past the first chunk the chunks' capacity is at most one chunk more than
// the samples they hold; up to a chunk the first slice has the capacity an
// appended slice of those samples has, but never more than a chunk. The
// streams are rising ones, whose first maxRuns samples are runs and every
// later one a chunk's, and the serve_live shape, whose runs count most
// samples and push one out now and then.
func TestRecorderSlackBounded(t *testing.T) {
	check := func(r *Recorder, appended []float64) {
		t.Helper()
		if len(r.runs) > maxRuns || cap(r.runs) > maxRuns {
			t.Fatalf("%d runs in a table of %d, want <= %d", len(r.runs), cap(r.runs), maxRuns)
		}
		n := r.n
		if n > chunkLen {
			held := 0
			for _, c := range r.chunks {
				held += cap(c)
			}
			if held > n+chunkLen {
				t.Fatalf("%d chunked samples occupy chunks of %d, want <= %d", n, held, n+chunkLen)
			}
			return
		}
		if n == 0 {
			if len(r.chunks) != 0 {
				t.Fatalf("no chunked samples, %d chunks", len(r.chunks))
			}
			return
		}
		if got, want := cap(r.chunks[0]), min(cap(appended), chunkLen); got != want {
			t.Fatalf("%d chunked samples: first slice capacity %d, want %d", n, got, want)
		}
	}
	// add adds x to r, and to appended as many samples as r's chunks took.
	add := func(r *Recorder, appended []float64, x float64) []float64 {
		r.Add(x)
		for len(appended) < r.n {
			appended = append(appended, x)
		}
		return appended
	}
	r := NewRecorder()
	var appended []float64
	for i := 0; i < 3*chunkLen; i++ {
		appended = add(r, appended, float64(i))
		check(r, appended)
	}
	for _, n := range []int{626, 8200, 60_000} {
		r, appended := NewRecorder(), []float64(nil)
		for i := 0; i < n; i++ {
			appended = add(r, appended, float64(i))
		}
		check(r, appended)
	}
	rng := rand.New(rand.NewSource(3))
	r, appended = NewRecorder(), nil
	for range 60_000 {
		appended = add(r, appended, waitSample(rng, 0.865, 7))
		check(r, appended)
	}
}
