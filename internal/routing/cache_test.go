package routing

import (
	"fmt"
	"math"
	"testing"

	"ispn/internal/sim"
)

// access drives one lookup-then-insert-on-miss round, the way the core uses
// the cache, and reports whether it hit.
func access(t *testing.T, c *Cache, from, to string) bool {
	t.Helper()
	if p, ok := c.Lookup(from, to, "hops"); ok {
		if len(p) != 2 || p[0] != from || p[1] != to {
			t.Fatalf("cache returned a foreign path %v for %s->%s", p, from, to)
		}
		return true
	}
	c.Insert(from, to, "hops", []string{from, to})
	return false
}

func TestCacheLRUFixture(t *testing.T) {
	c, err := NewCache(CacheLRU, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Classic LRU fixture at size 2: A B A C A B → the reuse of A keeps it
	// resident, C evicts B, the final B misses.
	trace := []string{"A", "B", "A", "C", "A", "B"}
	want := []bool{false, false, true, false, true, false}
	for i, dst := range trace {
		if got := access(t, c, "src", dst); got != want[i] {
			t.Fatalf("lru step %d (%s): hit=%v, want %v", i, dst, got, want[i])
		}
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("lru stats = %+v, want 2 hits, 4 misses, 2 evictions", st)
	}
}

func TestCacheFIFOFixture(t *testing.T) {
	c, err := NewCache(CacheFIFO, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same trace under FIFO: the reuse of A does not refresh it, so C
	// evicts A (oldest insertion), re-inserting A evicts B, and the final
	// B misses too — one hit fewer than LRU on the same trace.
	trace := []string{"A", "B", "A", "C", "A", "B"}
	want := []bool{false, false, true, false, false, false}
	for i, dst := range trace {
		if got := access(t, c, "src", dst); got != want[i] {
			t.Fatalf("fifo step %d (%s): hit=%v, want %v", i, dst, got, want[i])
		}
	}
}

func TestCacheDirectMapped(t *testing.T) {
	c, err := NewCache(CacheDirect, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two keys in the same slot evict each other; re-access after an
	// unrelated key is a hit only if the slots differ. Find two colliding
	// destinations first so the test does not depend on hash details.
	var a, b string
	slotOf := func(dst string) int { return c.slot(cacheKey{from: "src", to: dst, cost: "hops"}) }
outer:
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			x, y := fmt.Sprintf("d%d", i), fmt.Sprintf("d%d", j)
			if slotOf(x) == slotOf(y) {
				a, b = x, y
				break outer
			}
		}
	}
	if a == "" {
		t.Fatal("no colliding pair among 64 keys in 8 slots — hash is broken")
	}
	access(t, c, "src", a)
	if !access(t, c, "src", a) {
		t.Fatal("immediate re-access must hit")
	}
	access(t, c, "src", b) // collision: evicts a
	if access(t, c, "src", a) {
		t.Fatal("colliding insert must have evicted the resident key")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("direct-mapped collision did not count as an eviction")
	}
}

func TestCacheRandomEviction(t *testing.T) {
	c, err := NewCache(CacheRandom, 4, sim.DeriveRNG(1, "cache-test"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		access(t, c, "src", fmt.Sprintf("d%d", i))
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	if ev := c.Stats().Evictions; ev != 12 {
		t.Fatalf("evictions = %d, want 12", ev)
	}
	if _, err := NewCache(CacheRandom, 4, nil); err == nil {
		t.Fatal("random scheme without an RNG must be rejected")
	}
}

// A full associative cache reuses its victim's entry, so a miss allocates
// nothing there; hits, misses and evictions count as before.
func TestFullCacheInsertAllocatesNothing(t *testing.T) {
	const size, dests = 4, 16
	path := []string{"src", "dst"}
	names := make([]string, dests)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	for _, scheme := range []string{CacheLRU, CacheFIFO, CacheRandom} {
		c, err := NewCache(scheme, size, sim.DeriveRNG(1, "cache-test"))
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		miss := func() {
			if _, ok := c.Lookup("src", names[i%dests], "hops"); !ok {
				c.Insert("src", names[i%dests], "hops", path)
			}
			i++
		}
		for range 2 * dests {
			miss()
		}
		if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
			t.Errorf("%s: a miss on a full cache allocates %v times, want 0", scheme, allocs)
		}
		if st := c.Stats(); c.Len() != size || st.Hits+st.Misses != int64(i) || st.Evictions != st.Misses-size {
			t.Errorf("%s: %d entries, stats %+v after %d lookups", scheme, c.Len(), st, i)
		}
	}
}

func TestCacheInvalidate(t *testing.T) {
	for _, scheme := range CacheSchemes {
		c, err := NewCache(scheme, 8, sim.DeriveRNG(1, "cache-test"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			access(t, c, "src", fmt.Sprintf("d%d", i))
		}
		c.Invalidate()
		if c.Len() != 0 {
			t.Fatalf("%s: %d entries survive Invalidate", scheme, c.Len())
		}
		if access(t, c, "src", "d0") {
			t.Fatalf("%s: lookup hit after Invalidate", scheme)
		}
		if c.Stats().Invalidations != 1 {
			t.Fatalf("%s: invalidations = %d, want 1", scheme, c.Stats().Invalidations)
		}
	}
}

func TestCacheRejectsBadConfig(t *testing.T) {
	if _, err := NewCache("clock", 8, nil); err == nil {
		t.Fatal("unknown scheme must be rejected")
	}
	if _, err := NewCache(CacheLRU, 0, nil); err == nil {
		t.Fatal("zero size must be rejected")
	}
}

// zipfTrace draws n destination ranks with P(k) ∝ 1/(k+1)^s over universe
// destinations — the skewed reference pattern DEC-TR-592 measures caches
// against.
func zipfTrace(n, universe int, s float64, rng *sim.RNG) []string {
	cdf := make([]float64, universe)
	sum := 0.0
	for k := 0; k < universe; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	out := make([]string, n)
	for i := range out {
		u := rng.Float64() * sum
		lo, hi := 0, universe-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = fmt.Sprintf("d%d", lo)
	}
	return out
}

// TestCacheSchemeOrdering reproduces DEC-TR-592's head-to-head comparison:
// on a destination stream with Zipf locality, at equal cache size,
// LRU ≥ FIFO ≥ random on hit rate.
func TestCacheSchemeOrdering(t *testing.T) {
	trace := zipfTrace(20000, 200, 1.1, sim.DeriveRNG(7, "zipf"))
	rates := map[string]float64{}
	for _, scheme := range []string{CacheLRU, CacheFIFO, CacheRandom} {
		c, err := NewCache(scheme, 16, sim.DeriveRNG(7, "evict:"+scheme))
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range trace {
			access(t, c, "src", dst)
		}
		rates[scheme] = c.Stats().HitRate()
		t.Logf("%-6s hit rate %.3f", scheme, rates[scheme])
	}
	if rates[CacheLRU] < rates[CacheFIFO] {
		t.Fatalf("LRU (%.3f) must beat or match FIFO (%.3f) on a Zipf trace",
			rates[CacheLRU], rates[CacheFIFO])
	}
	if rates[CacheFIFO] < rates[CacheRandom] {
		t.Fatalf("FIFO (%.3f) must beat or match random (%.3f) on a Zipf trace",
			rates[CacheFIFO], rates[CacheRandom])
	}
	if rates[CacheLRU] < 0.5 {
		t.Fatalf("LRU hit rate %.3f is implausibly low for s=1.1 locality", rates[CacheLRU])
	}
}
