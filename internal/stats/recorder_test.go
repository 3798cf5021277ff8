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

// storageBytes is what r's sample storage occupies: every chunk at its
// capacity plus the chunk table.
func storageBytes(r *Recorder) int {
	b := cap(r.chunks) * 24
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

var rankSizes = []int{1, 15, 16, 17, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7}

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
			r.selectRank(0, n-1, n/2) // over ranks the calls above disordered again
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
// benchmark's own memory bounded. B/op is the 8 bytes a sample occupies
// plus whatever growth copies.
func BenchmarkRecorderAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
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
