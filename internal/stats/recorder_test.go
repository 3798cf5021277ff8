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

// liveStreams are the read-cost contract's streams: what round t (1..40)
// adds, given the smallest sample so far. The contract's bound holds for the
// first three; outrun is the most a rank can move, each round's samples
// above every earlier one, so that the median keeps moving half a round's
// samples up, past any guard a bounded round can place.
var liveStreams = []struct {
	name   string
	outrun bool
	next   func(rng *rand.Rand, t int, min float64) float64
}{
	{"stationary", false, func(rng *rand.Rand, _ int, _ float64) float64 { return rng.ExpFloat64() }},
	{"rising", false, func(rng *rand.Rand, t int, _ float64) float64 { return rng.ExpFloat64() + 0.01*float64(t) }},
	{"below-minimum", false, func(rng *rand.Rand, t int, min float64) float64 {
		if t == 20 {
			return min - 1 - rng.Float64()
		}
		return rng.ExpFloat64()
	}},
	{"outrun", true, func(rng *rand.Rand, t int, _ float64) float64 { return 100 + float64(t) + rng.Float64() }},
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

// liveBudget is what one round of the read-cost contract may visit.
func liveBudget(m int) int { return 32*m + 65536 }

// TestRecorderLiveReadsCostWhatWasAdded is the read-cost contract of a
// live reader: a recorder of n samples read at 0.5, 0.99 and 0.999, then 40
// rounds each adding m samples and reading the same ranks. From the second
// round on a round visits at most 32·m + 65 536 samples — selectRank's
// count plus absorb's — at n = 2²⁰ and 2²², where a round that re-selected
// from scratch would visit several times n; every answer is sort-then-index,
// and the placed-rank list never passes 64 entries. On the outrun stream a
// round may instead cut one segment between answered ranks again — at most
// 2·n visits, and never within five rounds of the last such cut.
func TestRecorderLiveReadsCostWhatWasAdded(t *testing.T) {
	const m, rounds = 4096, 40
	for _, n := range []int{1 << 20, 1 << 22} {
		for _, st := range liveStreams {
			t.Run(fmt.Sprintf("%s/%d", st.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				r := NewRecorder()
				all := make([]float64, n, n+rounds*m)
				for i := range all {
					all[i] = rng.ExpFloat64()
					r.Add(all[i])
				}
				slices.Sort(all)
				for _, p := range liveReadPs {
					r.Percentile(p)
				}
				xs := make([]float64, m)
				per := make([]int, 0, rounds)
				lastCut := -rounds
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
					per = append(per, visits)
					if len(r.placed) > maxPlaced {
						t.Fatalf("round %d: %d placed ranks", round, len(r.placed))
					}
					if round == 1 || visits <= liveBudget(m) {
						continue
					}
					if !st.outrun || visits > 2*n || round-lastCut < 5 {
						t.Errorf("round %d visited %d samples, budget %d", round, visits, liveBudget(m))
					}
					lastCut = round
				}
				t.Logf("visits per round: %v", per)
			})
		}
	}
}

// Storage costs what it holds: past the first chunk the chunks' capacity
// is at most one chunk more than the count; up to a chunk the first slice
// has the capacity an appended slice has, but never more than a chunk.
func TestRecorderSlackBounded(t *testing.T) {
	check := func(r *Recorder, appended []float64) {
		t.Helper()
		n := r.Count()
		if n > chunkLen {
			held := 0
			for _, c := range r.chunks {
				held += cap(c)
			}
			if held > n+chunkLen {
				t.Fatalf("%d samples occupy chunks of %d, want <= %d", n, held, n+chunkLen)
			}
			return
		}
		if got, want := cap(r.chunks[0]), min(cap(appended), chunkLen); got != want {
			t.Fatalf("%d samples: first slice capacity %d, want %d", n, got, want)
		}
	}
	r := NewRecorder()
	var appended []float64
	for i := 0; i < 3*chunkLen; i++ {
		r.Add(float64(i))
		appended = append(appended, float64(i))
		check(r, appended)
	}
	for _, n := range []int{626, 8200, 60_000} {
		r, appended := NewRecorder(), []float64(nil)
		for i := 0; i < n; i++ {
			r.Add(float64(i))
			appended = append(appended, float64(i))
		}
		check(r, appended)
	}
}

// One operation is one steady round of the read-cost contract's stationary
// stream at n = 2²⁰: the reads of 0.5, 0.99 and 0.999 after m = 4096 Adds
// (untimed), absorb included. As in the contract, a fresh recorder's first
// two rounds are untimed set-up and it serves 40 rounds. It fails itself if
// a round visits more than the contract's budget, or if the reads allocate
// more than the absorb's scratch, 8·m bytes, plus 1 KiB per round.
func BenchmarkRecorderLiveReads(b *testing.B) {
	const n, m, rounds = 1 << 20, 4096, 40
	rng := rand.New(rand.NewSource(1))
	var r *Recorder
	addRound := func() {
		for range m {
			r.Add(rng.ExpFloat64())
		}
	}
	readRound := func() (visits int) {
		for _, p := range liveReadPs {
			_, v := r.read(p)
			visits += v
		}
		return visits
	}
	var before, after runtime.MemStats
	var alloc uint64
	worst := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%(rounds-1) == 0 {
			r = NewRecorder()
			for range n - m {
				r.Add(rng.ExpFloat64())
			}
			for range 2 { // the first read; the first absorb, which places the guards
				addRound()
				readRound()
			}
		}
		addRound()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		visits := readRound()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		worst = max(worst, visits)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(worst), "max-visits/round")
	if worst > liveBudget(m) {
		b.Fatalf("a round visited %d samples, budget %d", worst, liveBudget(m))
	}
	if per := alloc / uint64(b.N); per > 8*m+1024 {
		b.Fatalf("reads allocated %d B per round, want <= %d (the absorb's scratch and 1 KiB)", per, 8*m+1024)
	}
}
