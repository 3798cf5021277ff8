package experiments

import (
	"fmt"
	"strings"

	"ispn/internal/routing"
)

// The cache showdown: DEC-TR-592's eviction-scheme comparison replayed on
// the simulator's destination-locality workload. One branch office
// originates a churn of predicted calls whose destinations follow a Zipf
// draw over eleven other branches, and every arrival resolves its route
// through a four-entry route cache — deliberately smaller than the
// destination set, so the eviction scheme decides the hit rate. Each scheme
// runs the identical scenario (same seed, same arrivals, same draws; the
// cache cannot change routing results, only its own counters), making the
// hit-rate column a pure like-for-like comparison: LRU tracks the locality,
// FIFO ignores recency, random evicts blindly, and direct-mapped pays for
// slot collisions.

// CacheCell is one eviction scheme's run.
type CacheCell struct {
	Scheme        string
	Size          int
	Hits          int64
	Misses        int64
	HitRate       float64
	Evictions     int64
	Invalidations int64
	Admitted      int64
}

// cacheScenarioSrc is the shared workload: only the eviction scheme varies.
func cacheScenarioSrc(scheme string, duration float64, seed int64) string {
	return fmt.Sprintf(`
# cache showdown cell: scheme %s
net :: Net(rate 10Mbps, admission on)
run :: Run(seed %d, horizon %.0fs)
site :: Star(leaves 12, rate 10Mbps, delay 1ms)
cache :: RouteCache(scheme %s, size 4)
calls :: Churn(every 100ms, hold 2s, service predicted, rate 64kbps, bucket 10kbit,
               delay 700ms, pps 64pps, size 1000bit, src cbr,
               from site.leaf1, locality 1.2,
               to [site.leaf2, site.leaf3, site.leaf4, site.leaf5, site.leaf6,
                   site.leaf7, site.leaf8, site.leaf9, site.leaf10, site.leaf11,
                   site.leaf12])
`, scheme, seed, duration, scheme)
}

// CacheShowdown runs the same locality workload under every eviction scheme.
// Cells are independent simulations fanned across the ForEach worker pool.
func CacheShowdown(cfg RunConfig) []CacheCell {
	cfg.fill()
	cells := make([]CacheCell, len(routing.CacheSchemes))
	for i, s := range routing.CacheSchemes {
		cells[i] = CacheCell{Scheme: s}
	}
	ForEach(len(cells), func(i int) {
		cell := &cells[i]
		src := cacheScenarioSrc(cell.Scheme, cfg.Duration, cfg.Seed)
		rep := runCell("cache-cell.ispn", src, cfg.Shards)
		rc := rep.RouteCache
		cell.Size = rc.Size
		cell.Hits = rc.Hits
		cell.Misses = rc.Misses
		cell.HitRate = rc.HitRate()
		cell.Evictions = rc.Evictions
		cell.Invalidations = rc.Invalidations
		cell.Admitted = rep.Churns[0].Admitted
	})
	return cells
}

// FormatCacheShowdown renders the scheme comparison.
func FormatCacheShowdown(cells []CacheCell) string {
	var b strings.Builder
	b.WriteString("Cache showdown: route-cache eviction schemes on a Zipf(1.2) hot-spot churn\n")
	b.WriteString("(11 destinations, 4 cache entries; identical arrivals and draws in every row)\n\n")
	fmt.Fprintf(&b, "%-8s %6s %8s %8s %9s %8s %8s\n",
		"scheme", "size", "hits", "misses", "hit-rate", "evict", "admit")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-8s %6d %8d %8d %8.1f%% %8d %8d\n",
			c.Scheme, c.Size, c.Hits, c.Misses, c.HitRate*100, c.Evictions, c.Admitted)
	}
	b.WriteString("\n(LRU rides the locality; FIFO forgets recency; random evicts blindly;\n")
	b.WriteString("direct-mapped trades bookkeeping for slot collisions)\n")
	return b.String()
}
