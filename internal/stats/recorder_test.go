package stats

import (
	"cmp"
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
	// Percentile sorts the tail in place; adding afterwards must still work.
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
// block's words at their size class and the block table, and the tail, each
// at its capacity.
func storageBytes(r *Recorder) int {
	b := cap(r.runs)*int(unsafe.Sizeof(run{})) + cap(r.blocks)*int(unsafe.Sizeof(block{})) + cap(r.tail)*8
	for _, bl := range r.blocks {
		b += cap(bl.w) * 8
	}
	return b
}

// runN is how many samples r's runs hold.
func runN(r *Recorder) int { return r.Count() - chunked(r) }

// chunked is how many samples r holds outside its runs.
func chunked(r *Recorder) int { return len(r.blocks)*chunkLen + len(r.tail) }

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

// Every rank of a recorder, asked in shuffled order, matches
// sort-then-index; so do the extreme and middle ranks asked first of a
// fresh recorder, whose tail is not yet sorted.
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
// and the source — its tail already sorted by its own Percentile — is
// unchanged.
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
// run of 10⁵ samples pushed out at once, after reads have sorted the tail;
// with NaN mixed in, which ranks above every other sample; and across an
// Absorb of one split recorder into another.
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
			if runN(r) < int(0.95*sh.share*n) {
				t.Fatalf("runs hold %d samples, want about %.0f", runN(r), sh.share*n)
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
			if len(r.runs) != min(i+1, maxRuns) || chunked(r) != max(i+1-maxRuns, 0) {
				t.Fatalf("after %d samples: %d runs, %d chunked", i+1, len(r.runs), chunked(r))
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
		if runN(r) != 100_000+maxRuns-1 {
			t.Fatalf("runs hold %d samples, want %d", runN(r), 100_000+maxRuns-1)
		}
		all = addReading(t, rng, r, all, []float64{0.5}, 1)
		if runN(r) != maxRuns || chunked(r) != 103_000 {
			t.Fatalf("after the push: %d samples in runs, %d chunked; want %d, %d", runN(r), chunked(r), maxRuns, 103_000)
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
			for _, k := range rng.Perm(n) {
				got := r.Percentile(rankP(k, n))
				if k < len(clean) && got != clean[k] || k >= len(clean) && !math.IsNaN(got) {
					t.Fatalf("NaN share %v: rank %d of %d = %v, %d not NaN", share, k, n, got, len(clean))
				}
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

// Growth copies nothing but the tail's first regrowths and the block
// table's: a million Adds allocate what they hold — the blocks at their
// size classes and the tail — plus those regrowths, which append's growth
// keeps under four times the table, and what they hold is under 8 B a
// sample. Append-growth of one slice of floats allocated about
// five times 8 MB.
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
	held := storageBytes(r)
	if limit := uint64(held + 4*cap(r.blocks)*int(unsafe.Sizeof(block{})) + 2*8*chunkLen); got > limit {
		t.Fatalf("1M Adds allocated %d bytes, want <= %d", got, limit)
	}
	if held > 8*n {
		t.Fatalf("1M samples occupy %d bytes, want <= %d", held, 8*n)
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
// so all but the smallest go to the blocks: ns/op carries a block's sort
// and coding spread over its samples, and B/op is what a block holds per
// sample plus whatever growth copies. sub-ns is the serve_live shape,
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

// One operation sorts and codes one chunk of fresh keys, as a full tail
// is; B/op is the block's words at their size class. exp draws the keys
// from Exp(1), grid from the simulator's delays (gridDelay).
func BenchmarkRecorderEncode(b *testing.B) {
	for _, bm := range []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"exp", func(rng *rand.Rand) float64 { return rng.ExpFloat64() }},
		{"grid", func(rng *rand.Rand) float64 { return gridDelay(rng, 0.0001234567) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var fresh, keys [chunkLen]uint64
			for i := range fresh {
				fresh[i] = key(bm.draw(rng))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys = fresh
				blockSink = encode(keys[:])
			}
		})
	}
}

var (
	percentileSink float64
	blockSink      block
)

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
// about 14 % of its samples to the blocks. tied is a stream of which half
// the samples are one value above the runs, so the median's bisection runs
// until its bounds meet with every block still counted.
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
	{"tied", func(rng *rand.Rand, _ int, _ float64) float64 { return tiedSample(rng) }, tiedSample},
}

// tiedSample is 1 with probability one half, else Exp(1).
func tiedSample(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return 1
	}
	return rng.ExpFloat64()
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

// TestRecorderLiveReadsCostWhatIsHeld bounds a live reader's reads in
// blocks: a recorder of n = 2²⁰ samples read at 0.5, 0.99 and 0.999, then
// 40 rounds each adding m = 4 096 samples and reading the same ranks. A
// probe counts every block that still has a key in the search's interval,
// and a read makes at most two probes per bit of the key space, so 128·B
// block counts a read is the bound by construction, B being the blocks
// held; on every stream here a round counts at most 3·16·B (11·B a read
// at most, measured), the tied one's equal keys included. Every answer is
// sort-then-index.
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
			const steps = 16
			xs := make([]float64, m)
			worst := 0.0
			for round := 1; round <= rounds; round++ {
				for i := range xs {
					xs[i] = st.next(rng, round, all[0])
					r.Add(xs[i])
				}
				slices.Sort(xs)
				all = mergeSorted(all, xs)
				probes := 0
				for _, p := range liveReadPs {
					got, c := r.read(p)
					probes += c
					if want := nearestRank(all, p); got != want {
						t.Fatalf("round %d: Percentile(%v) = %v, want %v", round, p, got, want)
					}
				}
				if b := len(r.blocks); probes > 3*steps*b {
					t.Errorf("round %d counted %d blocks, budget 3·%d·%d", round, probes, steps, b)
				}
				worst = max(worst, float64(probes)/float64(3*len(r.blocks)))
			}
			t.Logf("worst round: %.2f·B block counts a read", worst)
		})
	}
}

// Storage costs what it holds: the run table holds at most maxRuns runs;
// past the first chunk every chunked sample but the tail's is in a block
// and the tail has the capacity of a chunk, reused; up to a chunk the tail
// has the capacity an appended slice of those samples has, but never more
// than a chunk. The streams are rising ones, whose first maxRuns samples
// are runs and every later one a chunk's, and the serve_live shape, whose
// runs count most samples and push one out now and then.
func TestRecorderSlackBounded(t *testing.T) {
	check := func(r *Recorder, appended []float64) {
		t.Helper()
		if len(r.runs) > maxRuns || cap(r.runs) > maxRuns {
			t.Fatalf("%d runs in a table of %d, want <= %d", len(r.runs), cap(r.runs), maxRuns)
		}
		n := chunked(r)
		if n > chunkLen {
			if len(r.blocks) != (n-1)/chunkLen || cap(r.tail) != chunkLen {
				t.Fatalf("%d chunked samples: %d blocks, a tail of %d in %d", n, len(r.blocks), len(r.tail), cap(r.tail))
			}
			return
		}
		if got, want := cap(r.tail), min(cap(appended), chunkLen); got != want {
			t.Fatalf("%d chunked samples: tail capacity %d, want %d", n, got, want)
		}
	}
	// add adds x to r, and to appended as many samples as r's tail took.
	add := func(r *Recorder, appended []float64, x float64) []float64 {
		r.Add(x)
		for len(appended) < chunked(r) {
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

// sampleOrder is the order Percentile ranks samples in, written apart from
// key: numeric order, −0 below +0, and every NaN above everything else.
func sampleOrder(a, b float64) int {
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an || bn:
		return cmp.Compare(b2i(an), b2i(bn))
	case a != b:
		return cmp.Compare(a, b)
	}
	return cmp.Compare(b2i(!math.Signbit(a)), b2i(!math.Signbit(b)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// same is whether got is want, any NaN being the same as any. −0 is +0
// here: a run counts equal values, so one run holds both (a block keeps
// them apart, and TestRecorderBlockCoding decodes its keys to the bit).
func same(got, want float64) bool {
	return got == want || math.IsNaN(got) && math.IsNaN(want)
}

// checkRanks requires every rank of r, asked in shuffled order, to be
// sort-then-index of xs in sampleOrder.
func checkRanks(t *testing.T, rng *rand.Rand, r *Recorder, xs []float64) {
	t.Helper()
	sorted := slices.Clone(xs)
	slices.SortFunc(sorted, sampleOrder)
	n := len(sorted)
	if r.Count() != n {
		t.Fatalf("Count = %d, want %d", r.Count(), n)
	}
	for _, k := range rng.Perm(n) {
		if got := r.Percentile(rankP(k, n)); !same(got, sorted[k]) {
			t.Fatalf("rank %d of %d = %v (%#x), want %v (%#x)", k, n,
				got, math.Float64bits(got), sorted[k], math.Float64bits(sorted[k]))
		}
	}
}

// distinctRuns are maxRuns distinct values from hi down, which fill the run
// table so that every later sample above hi goes to the blocks.
func distinctRuns(hi float64) []float64 {
	xs := make([]float64, maxRuns)
	for i := range xs {
		xs[i], hi = hi, math.Nextafter(hi, math.Inf(-1))
	}
	return xs
}

// blockShapes are streams that exercise a block's coding: the first
// maxRuns samples of each fill the run table, so the rest are blocks and
// tail.
var blockShapes = []struct {
	name string
	xs   func(rng *rand.Rand) []float64
}{
	// NaN, ±0 and ±Inf among normal samples, both signs in every block:
	// NaN ranks last, −0 just below +0.
	{"specials", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(-1e300)
		specials := []float64{math.NaN(), -math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
		for range 5*chunkLen + 11 {
			if rng.Intn(8) == 0 {
				xs = append(xs, specials[rng.Intn(len(specials))])
			} else {
				xs = append(xs, rng.NormFloat64())
			}
		}
		return xs
	}},
	{"all-negative", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(-1e9)
		for range 3*chunkLen + 5 {
			xs = append(xs, -rng.ExpFloat64())
		}
		return xs
	}},
	// Whole blocks of one value: no low bits.
	{"constant", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(0)
		for range 2*chunkLen + 7 {
			xs = append(xs, 0.5)
		}
		return append(xs, 0.75, 0.25)
	}},
	// A few keys apart in every block: low bits of none or a few.
	{"narrow", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(0)
		for range 3*chunkLen + 1 {
			xs = append(xs, math.Nextafter(1, 2)+float64(rng.Intn(3000))*0x1p-52)
		}
		return xs
	}},
	// Both signs and the whole exponent range in every block: the widest
	// key range a block can span, the most low bits.
	{"both-signs", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(-math.MaxFloat64 / 2)
		for range 3*chunkLen + 3 {
			x := math.Float64frombits(rng.Uint64())
			if math.IsNaN(x) {
				x = math.MaxFloat64
			}
			xs = append(xs, x)
		}
		return append(xs, -math.MaxFloat64, math.MaxFloat64)
	}},
	// Simulated delays, the clock grid less a flow's fixed delay: k·2⁻⁴³
	// − c over about 8 binades, whose offsets inside one binade share the
	// grid's low bits.
	{"grid", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(0)
		for range 4*chunkLen + 9 {
			xs = append(xs, gridDelay(rng, 0.0001234567))
		}
		return xs
	}},
	// Two fixed delays interleaved, as in a recorder that several calls
	// share: each binade's offsets share fewer low bits.
	{"grid-mixed", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(0)
		for range 4*chunkLen + 9 {
			xs = append(xs, gridDelay(rng, []float64{0.0001234567, 0.0000987654321}[rng.Intn(2)]))
		}
		return xs
	}},
	// One outlier per block far above a cluster: a bucket of nearly
	// every key.
	{"outlier", func(rng *rand.Rand) []float64 {
		xs := distinctRuns(0)
		for i := range 3 * chunkLen {
			x := 1 + float64(rng.Intn(1<<20))*0x1p-52
			if i%chunkLen == 500 {
				x = 1e300
			}
			xs = append(xs, x)
		}
		return xs
	}},
}

// gridDelay is a delay as the simulator makes one: a multiple of the
// clock's grid, 2⁻⁴³ s, spread log-uniformly over [2⁻¹², 2⁻⁴) s, less the
// constant c.
func gridDelay(rng *rand.Rand, c float64) float64 {
	return float64(int64(math.Exp2(31+8*rng.Float64())))*0x1p-43 - c
}

// Percentile is sort-then-index on streams that exercise a block's coding,
// read once all is added; after Adds interleaved with reads of every rank
// across each block boundary; and after Absorbs across blocks, into an
// empty recorder and into one holding blocks of its own.
func TestRecorderBlocksMatchSort(t *testing.T) {
	for _, sh := range blockShapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			xs := sh.xs(rng)
			r := recorderOf(xs)
			if len(r.blocks) < 2 {
				t.Fatalf("%d samples made %d blocks, want at least 2", len(xs), len(r.blocks))
			}
			checkRanks(t, rng, r, xs)

			r = NewRecorder()
			for i, x := range xs {
				r.Add(x)
				if c := chunked(r); c%chunkLen < 3 || c%chunkLen > chunkLen-3 {
					checkRanks(t, rng, r, xs[:i+1])
				}
			}

			whole := recorderOf(xs)
			cut := len(xs) / 3
			dst, src := recorderOf(xs[:cut]), recorderOf(xs[cut:])
			dst.Absorb(src)
			checkRanks(t, rng, dst, xs)
			empty := NewRecorder()
			empty.Absorb(whole)
			checkRanks(t, rng, empty, xs)
			checkRanks(t, rng, whole, xs)
		})
	}
}

// Each shape's full chunks coded as blocks (see checkBlock); on the grid
// stream, whose binades keep the clock grid's low bits, the blocks take at
// most gridShare of the single-l coding's words (0.65 measured).
func TestRecorderBlockCoding(t *testing.T) {
	const gridShare = 0.8
	for _, sh := range blockShapes {
		rng := rand.New(rand.NewSource(9))
		xs := sh.xs(rng)[maxRuns:]
		words, single := 0, 0
		for c := 0; c+chunkLen <= len(xs); c += chunkLen {
			keys := make([]uint64, chunkLen)
			for i, x := range xs[c : c+chunkLen] {
				keys[i] = key(x)
				if math.IsNaN(x) {
					keys[i] = math.MaxUint64
				}
			}
			b := checkBlock(t, sh.name, keys)
			words, single = words+len(b.w), single+singleWords(keys)
		}
		t.Logf("%s: %d words, %d single-l (%.3f)", sh.name, words, single, float64(words)/float64(single))
		if sh.name == "grid" && float64(words) > gridShare*float64(single) {
			t.Errorf("%s: blocks take %d words, want at most %.1f of the single-l coding's %d", sh.name, words, gridShare, single)
		}
	}
}

// singleWords is what keys, sorted, take as one Elias–Fano code: the fewest
// low bits l that leave the high parts of their offsets from the smallest
// below 2·chunkLen, chunkLen·l bits of low parts and the high vector.
func singleWords(keys []uint64) int {
	top := keys[chunkLen-1] - keys[0]
	l := max(bits.Len64(top)-bucketShift, 0)
	return l<<(chunkShift-6) + (chunkLen+int(top>>l)+64)>>6
}

// checkBlock codes chunkLen keys as a block and requires of it: segments
// that start at the first key and at binade boundaries only, in order, each
// based at its smallest key with the largest shift its offsets share (0
// when all are 0) and the fewest low bits that leave its high parts below
// twice its count, and each but the first apart from the one before only
// while joining its first binade to that one would cost more bits; at most
// singleWords and one table entry of words; a
// decoding, a base and a last key that are the sorted keys'; and every
// key's rank, and its neighbours', that of a bisection of them.
func checkBlock(t testing.TB, name string, keys []uint64) block {
	t.Helper()
	b := encode(slices.Clone(keys))
	slices.Sort(keys)
	if b.segs == 0 || b.seg(0).start != 0 {
		t.Fatalf("%s: %d segments, the first at key %d", name, b.segs, b.seg(0).start)
	}
	for j := range int(b.segs) {
		s, end := b.seg(j), b.start(j+1)
		if end <= s.start || j > 0 && keys[s.start-1]>>52 == keys[s.start]>>52 {
			t.Fatalf("%s: segment %d holds keys [%d, %d), not whole binades", name, j, s.start, end)
		}
		if s.base != keys[s.start] {
			t.Fatalf("%s: segment %d based at %#x, its smallest key %#x", name, j, s.base, keys[s.start])
		}
		or := uint64(0)
		for _, k := range keys[s.start:end] {
			or |= k - s.base
		}
		if or == 0 && s.t != 0 || or != 0 && (or>>s.t&1 == 0 || or&(1<<s.t-1) != 0) {
			t.Fatalf("%s: segment %d shifted %d, its offsets %#x", name, j, s.t, or)
		}
		top, n := (keys[end-1]-s.base)>>s.t, uint64(2*(end-s.start))
		if top>>s.l >= n || s.l > 0 && top>>(s.l-1) < n || uint64(s.hmax) != top>>s.l {
			t.Fatalf("%s: segment %d of %d keys, codes to %#x, coded with %d low bits, hmax %d", name, j, end-s.start, top, s.l, s.hmax)
		}
	}
	for j := 1; j < int(b.segs); j++ { // the encoder joins a binade to the segment before it when that costs no more bits
		prev, next := b.seg(j-1), b.seg(j)
		bin := part{start: next.start, end: next.start + 1, t: 64}
		for ; bin.end < chunkLen && keys[bin.end]>>52 == keys[next.start]>>52; bin.end++ {
			bin.t = min(bin.t, uint(bits.TrailingZeros64(keys[bin.end]-next.base)))
		}
		seg := part{start: prev.start, end: next.start, t: 64}
		for _, k := range keys[prev.start:next.start] {
			seg.t = min(seg.t, uint(bits.TrailingZeros64(k-prev.base)))
		}
		if seg.join(bin, keys).cost(keys) <= seg.cost(keys)+bin.cost(keys) {
			t.Fatalf("%s: segments %d and %d apart, though joining keys [%d, %d) to the first costs no more", name, j-1, j, bin.start, bin.end)
		}
	}
	if max := singleWords(keys) + 2; len(b.w) > max {
		t.Fatalf("%s: %d words in %d segments, the single-l coding and one entry take %d", name, len(b.w), b.segs, max)
	}
	if got := b.decode(0, chunkLen, nil); !slices.Equal(got, keys) {
		t.Fatalf("%s: block decodes to other keys", name)
	}
	for i := range chunkLen {
		if got := b.decode(i, i+1, nil); got[0] != keys[i] {
			t.Fatalf("%s: key %d decodes alone to %#x, want %#x", name, i, got[0], keys[i])
		}
	}
	if b.base() != keys[0] || b.last() != keys[chunkLen-1] {
		t.Fatalf("%s: base, last = %#x, %#x, want %#x, %#x", name, b.base(), b.last(), keys[0], keys[chunkLen-1])
	}
	for i, k := range keys {
		for _, q := range []uint64{k - 1, k, k + 1} {
			if q == k-1 && k == 0 || q == k+1 && k == math.MaxUint64 {
				continue
			}
			if got, want := b.rank(q), sort.Search(len(keys), func(i int) bool { return keys[i] > q }); got != want {
				t.Fatalf("%s: rank of key %d%+d = %d, want %d", name, i, int64(q-k), got, want)
			}
		}
	}
	return b
}

// NaN compares false with everything; it ranks above every other sample
// whatever share of a recorder it is, at sizes straddling the blocks.
func TestRecorderNaNSamplesAreSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 16, 17, 100, chunkLen + 1, 3*chunkLen + 7} {
		for _, share := range []float64{0.01, 0.5, 1} {
			xs := make([]float64, n)
			for i := range xs {
				if rng.Float64() < share {
					xs[i] = math.NaN()
				} else {
					xs[i] = rng.Float64()
				}
			}
			checkRanks(t, rng, recorderOf(xs), xs)
		}
	}
}
