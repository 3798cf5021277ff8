package routing

// Destination-locality route caching, after Jain's DEC-TR-592
// (Characteristics of Destination Address Locality in Computer Networks): a
// small cache in front of Graph.ShortestPath exploits the skew of
// destination popularity so the common lookup is a map probe, not a
// Dijkstra run. The report compares four eviction schemes head-to-head at
// equal size — LRU, FIFO, random and direct-mapped — which is exactly the
// comparison the simulator's CacheShowdown experiment reproduces on
// Zipf-skewed Churn workloads.
//
// Correctness discipline: a cached path must be indistinguishable from a
// freshly computed one. Entries are keyed by (src, dst, cost-kind) and the
// owner (core.Network) invalidates the whole cache on every event that can
// change a shortest path — link failure, restore, reconfiguration, profile
// swap, routing-config change. Under that rule cached and uncached runs
// produce byte-identical reports, which the scenario test suite enforces on
// every shipped scenario.

import (
	"fmt"
	"hash/fnv"

	"ispn/internal/sim"
)

// Cache eviction schemes, as DEC-TR-592 names them.
const (
	CacheLRU    = "lru"
	CacheFIFO   = "fifo"
	CacheRandom = "random"
	CacheDirect = "direct"
)

// CacheSchemes lists every eviction scheme, in the order reports print them.
var CacheSchemes = []string{CacheLRU, CacheFIFO, CacheRandom, CacheDirect}

// CacheStats counts cache outcomes over its lifetime.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64 // full clears (topology/config changes)
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

type cacheKey struct {
	from, to string
	cost     string // cost kind: entries computed under different costs never alias
}

// cacheEntry is one cached route. The associative schemes (lru/fifo/random)
// chain entries on an intrusive list; direct-mapped slots use only key/path.
type cacheEntry struct {
	key  cacheKey
	path []string

	prev, next *cacheEntry // lru/fifo recency/insertion list
}

// Cache is a fixed-size route cache with a pluggable eviction scheme.
// It is not safe for concurrent use; all route lookups in the simulator run
// on the control plane.
type Cache struct {
	scheme string
	size   int
	rng    *sim.RNG // random eviction draws; nil for the other schemes

	// Associative schemes: map + intrusive list (lru/fifo) or dense key
	// slice (random).
	entries map[cacheKey]*cacheEntry
	head    *cacheEntry // most recently used / inserted
	tail    *cacheEntry // eviction victim
	keys    []*cacheEntry

	// Direct-mapped: size slots addressed by key hash, collision evicts.
	slots []cacheEntry
	live  int // occupied direct slots

	stats CacheStats
}

// NewCache builds a route cache of the given scheme and size. The random
// scheme needs a deterministic stream for its eviction draws (derive one
// with sim.DeriveRNG so runs stay reproducible); the other schemes ignore
// rng.
func NewCache(scheme string, size int, rng *sim.RNG) (*Cache, error) {
	if size < 1 {
		return nil, fmt.Errorf("routing: cache size must be positive, got %d", size)
	}
	c := &Cache{scheme: scheme, size: size, rng: rng}
	switch scheme {
	case CacheLRU, CacheFIFO:
		c.entries = make(map[cacheKey]*cacheEntry, size)
	case CacheRandom:
		if rng == nil {
			return nil, fmt.Errorf("routing: random cache eviction needs an RNG")
		}
		c.entries = make(map[cacheKey]*cacheEntry, size)
		c.keys = make([]*cacheEntry, 0, size)
	case CacheDirect:
		c.slots = make([]cacheEntry, size)
	default:
		return nil, fmt.Errorf("routing: unknown cache scheme %q (schemes: %s)",
			scheme, joinSchemes())
	}
	return c, nil
}

func joinSchemes() string {
	out := ""
	for i, s := range CacheSchemes {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// Scheme returns the eviction scheme name.
func (c *Cache) Scheme() string { return c.scheme }

// Size returns the cache capacity in entries.
func (c *Cache) Size() int { return c.size }

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c.scheme == CacheDirect {
		return c.live
	}
	return len(c.entries)
}

// Stats returns the lifetime counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Lookup returns the cached route from -> to under the named cost, if
// present. The returned slice is shared — callers must not mutate it.
func (c *Cache) Lookup(from, to, cost string) ([]string, bool) {
	key := cacheKey{from: from, to: to, cost: cost}
	if c.scheme == CacheDirect {
		e := &c.slots[c.slot(key)]
		if e.path != nil && e.key == key {
			c.stats.Hits++
			return e.path, true
		}
		c.stats.Misses++
		return nil, false
	}
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	if c.scheme == CacheLRU {
		c.moveToFront(e)
	}
	return e.path, true
}

// Insert stores a freshly computed route after a Lookup miss for the same
// key, evicting per the scheme when full; the key must not be present (the
// insert-after-miss model the cache schemes assume, and the way
// core.LookupRoute calls it, in the same event as the miss). Nil paths ("no
// route") are never cached: on a partitioned topology the negative answer is
// cheap to recompute and caching it would complicate invalidation for no
// measurable gain.
func (c *Cache) Insert(from, to, cost string, path []string) {
	if path == nil {
		return
	}
	key := cacheKey{from: from, to: to, cost: cost}
	if c.scheme == CacheDirect {
		e := &c.slots[c.slot(key)]
		if e.path != nil && e.key != key {
			c.stats.Evictions++
		}
		if e.path == nil {
			c.live++
		}
		e.key = key
		e.path = path
		return
	}
	// A full cache reuses its victim's entry: a miss allocates nothing.
	var e *cacheEntry
	if len(c.entries) >= c.size {
		e = c.evict()
	} else {
		e = new(cacheEntry)
	}
	*e = cacheEntry{key: key, path: path}
	c.entries[key] = e
	switch c.scheme {
	case CacheLRU, CacheFIFO:
		c.pushFront(e)
	case CacheRandom:
		c.keys = append(c.keys, e)
	}
}

// Invalidate clears every entry — the owner calls it whenever the topology
// or routing configuration changes, so no stale path can survive a
// fail/restore/reconfigure/profile-swap.
func (c *Cache) Invalidate() {
	c.stats.Invalidations++
	switch c.scheme {
	case CacheDirect:
		for i := range c.slots {
			c.slots[i] = cacheEntry{}
		}
		c.live = 0
	case CacheRandom:
		clear(c.entries)
		c.keys = c.keys[:0]
	default:
		clear(c.entries)
		c.head, c.tail = nil, nil
	}
}

// evict removes one victim per the scheme (associative schemes only) and
// returns its entry.
func (c *Cache) evict() *cacheEntry {
	c.stats.Evictions++
	var v *cacheEntry
	switch c.scheme {
	case CacheLRU, CacheFIFO:
		// LRU's list is maintained by recency, FIFO's by insertion; either
		// way the tail is the victim.
		v = c.tail
		c.unlink(v)
	case CacheRandom:
		i := c.rng.Intn(len(c.keys))
		v = c.keys[i]
		last := len(c.keys) - 1
		c.keys[i] = c.keys[last]
		c.keys = c.keys[:last]
	}
	delete(c.entries, v.key)
	return v
}

// slot maps a key to its direct-mapped slot. FNV-1a rather than
// hash/maphash: slot placement decides hits and misses, which the report
// prints, so it must be identical across runs and processes (maphash seeds
// are per-process random).
func (c *Cache) slot(key cacheKey) int {
	h := fnv.New64a()
	h.Write([]byte(key.from))
	h.Write([]byte{0})
	h.Write([]byte(key.to))
	h.Write([]byte{0})
	h.Write([]byte(key.cost))
	return int(h.Sum64() % uint64(c.size))
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
