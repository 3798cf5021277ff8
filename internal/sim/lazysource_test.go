package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// stdRNG is the reference: the RNG methods over an eagerly seeded math/rand
// source, which is what every RNG was before seeding became lazy.
func stdRNG(seed int64) *RNG {
	return &RNG{r: *rand.New(rand.NewSource(seed))}
}

// drawMixed draws one value from g by the method k selects, as a comparable
// bit pattern. Perm is rare (k = 22 mod 23) because one call consumes n
// source outputs. Perm and NormFloat64 are rand.Rand methods RNG does not
// wrap; they are drawn from g.r so the source is exercised under every
// consumption pattern rand.Rand has.
func drawMixed(g *RNG, k int) uint64 {
	if k%23 == 22 {
		h := uint64(0)
		for _, v := range g.r.Perm(5 + k%11) {
			h = h*31 + uint64(v)
		}
		return h
	}
	switch k % 6 {
	case 0:
		return math.Float64bits(g.Float64())
	case 1:
		return uint64(g.Intn(1 + k))
	case 2:
		return uint64(g.Int63())
	case 3:
		return math.Float64bits(g.Exp(2.5))
	case 4:
		return uint64(g.Geometric(7))
	default:
		return math.Float64bits(g.r.NormFloat64()*3 + 1)
	}
}

func TestLazySourceMatchesStdlib(t *testing.T) {
	t.Run("differential", testLazyDifferential)
	t.Run("long", testLazyLongStreams)
	t.Run("pinned", testLazyPinnedValues)
	t.Run("reseed", testLazyReseed)
}

// longDraws is how far past promotion the long streams are compared: the
// register wraps 164 times.
const longDraws = 100000

// sameStream compares longDraws mixed draws of got and want.
func sameStream(t *testing.T, what string, got, want *RNG) {
	t.Helper()
	for k := 0; k < longDraws; k++ {
		if g, w := drawMixed(got, k), drawMixed(want, k); g != w {
			t.Fatalf("%s: draw %d = %#x, stdlib gives %#x", what, k, g, w)
		}
	}
}

// testLazyLongStreams runs promoted streams far past promotion, from seeds
// the reduction treats specially (0, negatives, multiples of 2^31-1), and
// re-seeds promoted streams, which reaches the register's own Seed.
func testLazyLongStreams(t *testing.T) {
	const m = math.MaxInt32
	for _, seed := range []int64{0, -1, -7, m, -m, 2 * m, -3 * m, m - 1, math.MinInt64, 1992} {
		g := NewRNG(seed)
		sameStream(t, fmt.Sprintf("seed %d", seed), g, stdRNG(seed))
		if g.lazy.n != lazyDraws+1 {
			t.Fatalf("seed %d: stream did not promote", seed)
		}
		next := seed*31 + 5
		g.r.Seed(next)
		sameStream(t, fmt.Sprintf("seed %d re-seeded %d", seed, next), g, stdRNG(next))
	}
}

func testLazyDifferential(t *testing.T) {
	const m = math.MaxInt32 // 2^31-1, the modulus seeds are reduced by
	seeds := []int64{
		0, 1, -1, m, -m, 2 * m, -2 * m, 3*m + 1, m - 1, m + 1,
		89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	pick := rand.New(rand.NewSource(20260929))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		got, want := NewRNG(seed), stdRNG(seed)
		for k := 0; k < 1500; k++ {
			if g, w := drawMixed(got, k), drawMixed(want, k); g != w {
				t.Fatalf("seed %d: draw %d = %#x, stdlib gives %#x", seed, k, g, w)
			}
		}
		if got.lazy.n != lazyDraws+1 {
			t.Fatalf("seed %d: stream did not promote after 1500 draws (n=%d)", seed, got.lazy.n)
		}
	}

	// One method at a time from draw 0, so every method meets the stateless
	// outputs, the promotion at 63->64 and the register wrap at 273 and 607.
	for _, k := range []int{0, 1, 2, 3, 4, 5, 22} {
		got, want := NewRNG(int64(k)-3), stdRNG(int64(k)-3)
		for i := 0; i < 700; i++ {
			if g, w := drawMixed(got, k), drawMixed(want, k); g != w {
				t.Fatalf("method %d: draw %d = %#x, stdlib gives %#x", k, i, g, w)
			}
		}
	}
}

// The stream's definition is pinned by value too, not only against whatever
// math/rand the toolchain ships: these were produced by the eagerly seeded
// implementation this one replaced.
func testLazyPinnedValues(t *testing.T) {
	if v := DeriveRNG(7, "flow-3").Float64(); v != 0.9307205482849601 {
		t.Errorf("DeriveRNG(7, flow-3) first Float64 = %v", v)
	}
	if v := NewRNG(0).Int63(); v != 8717895732742165505 {
		t.Errorf("NewRNG(0) first Int63 = %v", v)
	}
	g := DeriveRNG(1992, "src:voice")
	var v int64
	for i := 0; i < lazyDraws+1; i++ {
		v = g.Int63()
	}
	if v != 5219065055919200273 {
		t.Errorf("DeriveRNG(1992, src:voice) Int63 #65 = %v", v)
	}
	g = NewRNG(math.MinInt64)
	var e float64
	for i := 0; i < 700; i++ {
		e = g.Exp(1)
	}
	if e != 0.5743510307201039 {
		t.Errorf("NewRNG(MinInt64) Exp #700 = %v", e)
	}
}

func testLazyReseed(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 10; i++ {
		g.Int63()
	}
	g.r.Seed(12)
	if g.lazy.n != 0 || g.r.Int63() != stdRNG(12).Int63() {
		t.Fatalf("re-seed before promotion: n=%d, stream does not restart at seed 12", g.lazy.n)
	}

	// After promotion a re-seed reaches the register, through the RNG and
	// through a rand.Rand still holding the lazy source.
	stale := g.r
	for i := 0; i < 100; i++ {
		g.Int63()
	}
	g.r.Seed(13)
	want := stdRNG(13)
	if g.Int63() != want.Int63() || stale.Int63() != want.Int63() {
		t.Fatal("re-seed after promotion does not restart at seed 13")
	}
	stale.Seed(14)
	want = stdRNG(14)
	if stale.Int63() != want.Int63() || g.Int63() != want.Int63() {
		t.Fatal("re-seed through the lazy source after promotion does not restart at seed 14")
	}
}

var sinkF float64

// A long-lived stream's register is one 4864-byte object, math/rand's source
// rounded to 5376 bytes: a promoted stream holds the register and the RNG
// itself, nothing more.
func TestPromotedStreamHeap(t *testing.T) {
	const n = 1000
	budget := uint64(4864 + unsafe.Sizeof(RNG{}))
	keep := make([]*RNG, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		g := NewRNG(int64(i))
		for k := 0; k <= lazyDraws; k++ {
			g.Int63()
		}
		keep[i] = g
	}
	runtime.ReadMemStats(&after)
	for _, g := range keep {
		if g.lazy.n != lazyDraws+1 {
			t.Fatal("stream did not promote")
		}
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > budget {
		t.Errorf("a promoted stream allocates %d B, want <= %d (the register's 4864 B size class and the RNG)", per, budget)
	}
	runtime.KeepAlive(keep)
}

// A churn run makes tens of thousands of streams that draw one value each:
// such a stream must stay a few dozen bytes, not a 4.9 KB register.
func TestShortStreamAllocatesLittle(t *testing.T) {
	const n = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sinkF = DeriveRNG(int64(i), "src:call").Float64()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 256 {
		t.Errorf("DeriveRNG + one draw allocates %d B, want < 256", per)
	}
	if a := testing.AllocsPerRun(1000, func() { sinkF = DeriveRNG(7, "src:call").Float64() }); a > 3 {
		t.Errorf("DeriveRNG + one draw makes %v allocations, want <= 3", a)
	}
}

func BenchmarkDeriveRNGOneDraw(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = DeriveRNG(int64(i), "src:call").Float64()
	}
}

func BenchmarkRNGPromotedExp(b *testing.B) {
	g := NewRNG(1)
	for i := 0; i < 2*lazyDraws; i++ {
		g.Exp(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = g.Exp(1)
	}
}

func BenchmarkRNGPromotedExpStdlib(b *testing.B) {
	g := stdRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkF = g.Exp(1)
	}
}
