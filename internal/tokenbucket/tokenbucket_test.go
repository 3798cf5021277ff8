package tokenbucket

import (
	"math"
	"math/rand"
	"testing"
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

// conformance is the reference Take is held to: a whole trace checked
// against the paper's recurrence (Section 4)
//
//	n₀ = b,  nᵢ = min(b, nᵢ₋₁ + (tᵢ − tᵢ₋₁)·r − pᵢ)
//
// reporting whether nᵢ ≥ 0 for all i. Times must be nondecreasing.
func conformance(rate, depth float64, times, sizes []float64) bool {
	n := depth
	for i := range times {
		gap := 0.0
		if i > 0 {
			gap = times[i] - times[i-1]
		}
		n = math.Min(depth, n+gap*rate-sizes[i])
		if n < -1e-9 {
			return false
		}
	}
	return true
}

func TestConformanceRecurrence(t *testing.T) {
	// Trace at rate 1, unit packets, 1 second apart: conforms to (1, 1).
	times := []float64{0, 1, 2, 3}
	sizes := []float64{1, 1, 1, 1}
	if !conformance(1, 1, times, sizes) {
		t.Fatal("rate-1 trace should conform to (1,1)")
	}
	// Two packets at t=0 need depth 2.
	times2 := []float64{0, 0}
	sizes2 := []float64{1, 1}
	if conformance(1, 1, times2, sizes2) {
		t.Fatal("back-to-back pair should not conform to depth 1")
	}
	if !conformance(1, 2, times2, sizes2) {
		t.Fatal("back-to-back pair should conform to depth 2")
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
	if !conformance(5, 3, times, sizes) {
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
