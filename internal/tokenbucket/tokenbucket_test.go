package tokenbucket

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBucketStartsFull(t *testing.T) {
	b := New(10, 5)
	if got := b.Tokens(0); got != 5 {
		t.Fatalf("Tokens(0) = %v, want 5 (bucket starts full, n0=b)", got)
	}
}

func TestBucketRefillCapped(t *testing.T) {
	b := New(10, 5)
	if !b.Take(0, 5) {
		t.Fatal("full bucket refused a depth-sized packet")
	}
	if got := b.Tokens(0.1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Tokens(0.1) = %v, want 1", got)
	}
	if got := b.Tokens(100); got != 5 {
		t.Fatalf("Tokens(100) = %v, want 5 (capped at depth)", got)
	}
}

func TestTakeNonConformingConsumesNothing(t *testing.T) {
	b := New(1, 2)
	if !b.Take(0, 2) {
		t.Fatal("expected first take to succeed")
	}
	if b.Take(0, 1) {
		t.Fatal("empty bucket accepted a packet")
	}
	// Level should refill from zero, not below.
	if got := b.Tokens(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Tokens(1) = %v, want 1", got)
	}
}

func TestConstantRateAtBucketRateConforms(t *testing.T) {
	// A source sending exactly at the token rate always conforms.
	b := New(100, 1) // 100 unit-size packets/sec, depth 1
	for i := 0; i < 1000; i++ {
		if !b.Take(float64(i)*0.01, 1) {
			t.Fatalf("packet %d at exactly the token rate did not conform", i)
		}
	}
}

func TestBurstUpToDepthConforms(t *testing.T) {
	b := New(10, 7)
	for i := 0; i < 7; i++ {
		if !b.Take(0, 1) {
			t.Fatalf("burst packet %d within depth rejected", i)
		}
	}
	if b.Take(0, 1) {
		t.Fatal("burst packet beyond depth accepted")
	}
}

func TestTimeUntilConform(t *testing.T) {
	b := New(2, 10)
	b.Take(0, 10)
	if got := b.TimeUntilConform(0, 4); math.Abs(got-2) > 1e-12 {
		t.Fatalf("TimeUntilConform = %v, want 2", got)
	}
	if got := b.TimeUntilConform(0, 11); !math.IsInf(got, 1) {
		t.Fatalf("TimeUntilConform beyond depth = %v, want +Inf", got)
	}
	if got := b.TimeUntilConform(100, 1); got != 0 {
		t.Fatalf("TimeUntilConform when conforming = %v, want 0", got)
	}
}

func TestConformanceRecurrence(t *testing.T) {
	// Trace at rate 1, unit packets, 1 second apart: conforms to (1, 1).
	times := []float64{0, 1, 2, 3}
	sizes := []float64{1, 1, 1, 1}
	if !Conformance(1, 1, times, sizes) {
		t.Fatal("rate-1 trace should conform to (1,1)")
	}
	// Two packets at t=0 need depth 2.
	times2 := []float64{0, 0}
	sizes2 := []float64{1, 1}
	if Conformance(1, 1, times2, sizes2) {
		t.Fatal("back-to-back pair should not conform to depth 1")
	}
	if !Conformance(1, 2, times2, sizes2) {
		t.Fatal("back-to-back pair should conform to depth 2")
	}
}

func TestMinDepthSimpleCases(t *testing.T) {
	// Burst of k simultaneous unit packets needs depth k.
	times := []float64{0, 0, 0, 0, 0}
	sizes := []float64{1, 1, 1, 1, 1}
	if got := MinDepth(1, times, sizes); math.Abs(got-5) > 1e-9 {
		t.Fatalf("MinDepth = %v, want 5", got)
	}
	// Evenly spaced at the rate needs depth 1.
	times2 := []float64{0, 1, 2, 3}
	if got := MinDepth(1, times2, sizes[:4]); math.Abs(got-1) > 1e-9 {
		t.Fatalf("MinDepth = %v, want 1", got)
	}
}

func TestMinDepthIsNonincreasingInRate(t *testing.T) {
	// b(r) is nonincreasing in r (paper Section 4).
	rng := rand.New(rand.NewSource(5))
	var times, sizes []float64
	now := 0.0
	for i := 0; i < 500; i++ {
		now += rng.ExpFloat64() * 0.1
		times = append(times, now)
		sizes = append(sizes, 1)
	}
	prev := math.Inf(1)
	for r := 1.0; r <= 50; r += 1.0 {
		d := MinDepth(r, times, sizes)
		if d > prev+1e-9 {
			t.Fatalf("b(r) increased: b(%v)=%v > b(%v)=%v", r, d, r-1, prev)
		}
		prev = d
	}
}

// Property: MinDepth is exactly the threshold of Conformance — the trace
// conforms at depth MinDepth (+eps) and fails just below it.
func TestMinDepthIsTight(t *testing.T) {
	f := func(gaps []uint8, seed int64) bool {
		if len(gaps) < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		var times, sizes []float64
		now := 0.0
		for _, g := range gaps {
			now += float64(g) * 0.01
			times = append(times, now)
			sizes = append(sizes, 1+rng.Float64()*3)
		}
		rate := 0.5 + rng.Float64()*10
		d := MinDepth(rate, times, sizes)
		if !Conformance(rate, d+1e-6, times, sizes) {
			return false
		}
		if d > 0.01 && Conformance(rate, d-0.01, times, sizes) {
			// Depth meaningfully below the minimum must fail,
			// unless the binding constraint is the very first
			// packet... which is covered since n0 = depth.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stream filtered through Take always conforms per the
// recurrence check.
func TestFilteredStreamConforms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := New(5, 3)
	var times, sizes []float64
	now := 0.0
	for i := 0; i < 2000; i++ {
		now += rng.ExpFloat64() * 0.05
		if b.Take(now, 1) {
			times = append(times, now)
			sizes = append(sizes, 1)
		}
	}
	if len(times) == 0 {
		t.Fatal("filter dropped everything")
	}
	if !Conformance(5, 3, times, sizes) {
		t.Fatal("output of Take violates the conformance recurrence")
	}
}

func TestPaperSourceDropRate(t *testing.T) {
	// The paper: Markov sources with B=5, P=2A, policed by an (A, 50)
	// packet bucket drop about 2% of packets. Reproduce the order of
	// magnitude with the same process.
	rng := rand.New(rand.NewSource(42))
	const A = 85.0 // packets/sec
	P := 2 * A
	Bmean := 5.0
	Imean := Bmean / (2 * A) // I = B/2A so that A is the average rate
	b := New(A, 50)
	total, dropped := 0, 0
	now := 0.0
	for now < 2000 {
		n := geometric(rng, Bmean)
		for i := 0; i < n; i++ {
			total++
			if !b.Take(now, 1) {
				dropped++
			}
			now += 1 / P
		}
		now += rng.ExpFloat64() * Imean
	}
	rate := float64(dropped) / float64(total)
	if rate < 0.001 || rate > 0.08 {
		t.Fatalf("drop rate = %.4f, want ~0.02 (paper reports ~2%%)", rate)
	}
}

func geometric(rng *rand.Rand, mean float64) int {
	p := 1 / mean
	n := int(math.Ceil(math.Log(1-rng.Float64()) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 1) },
		func() { New(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor with invalid argument did not panic")
				}
			}()
			f()
		}()
	}
}

func TestConformanceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Conformance(1, 1, []float64{0, 1}, []float64{1})
}
