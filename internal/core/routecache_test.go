package core

import (
	"slices"
	"testing"

	"ispn/internal/routing"
)

// diamond builds S1 -> S2 -> S4 (2 hops) and S1 -> S3 -> S5 -> S4 (3 hops):
// under the hops cost every S1 -> S4 lookup prefers the S2 route until it
// fails.
func diamond(cfg Config) *Network {
	n := New(cfg)
	for _, s := range []string{"S1", "S2", "S3", "S4", "S5"} {
		n.AddSwitch(s)
	}
	n.Connect("S1", "S2")
	n.Connect("S2", "S4")
	n.Connect("S1", "S3")
	n.Connect("S3", "S5")
	n.Connect("S5", "S4")
	return n
}

// mustCache builds a cache or fails the test.
func mustCache(t *testing.T, scheme string, size int) *routing.Cache {
	t.Helper()
	c, err := routing.NewCache(scheme, size, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRouteCacheServesAndHits(t *testing.T) {
	n := diamond(Config{Seed: 1})
	c := mustCache(t, routing.CacheLRU, 8)
	n.SetRouteCache(c)
	p1 := n.LookupRoute("S1", "S4")
	if len(p1) != 3 || p1[1] != "S2" {
		t.Fatalf("shortest S1->S4 = %v, want via S2", p1)
	}
	p2 := n.LookupRoute("S1", "S4")
	if &p1[0] != &p2[0] {
		t.Fatal("second lookup did not come from the cache")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestRouteCacheNeverServesStaleRoutes is the invalidation property: after
// every event that can change a shortest path, the cached answer must equal
// a fresh computation.
func TestRouteCacheNeverServesStaleRoutes(t *testing.T) {
	n := diamond(Config{Seed: 1})
	c := mustCache(t, routing.CacheLRU, 8)
	n.SetRouteCache(c)

	// Prime, then fail the cached route's middle link: the detour must be
	// served, not the dead route.
	n.LookupRoute("S1", "S4")
	if err := n.FailLink("S2", "S4"); err != nil {
		t.Fatal(err)
	}
	if p := n.LookupRoute("S1", "S4"); len(p) != 4 || p[1] != "S3" {
		t.Fatalf("post-failure lookup = %v, want the S3 detour", p)
	}

	// Restore: the cached detour must give way to the shorter route again.
	if err := n.RestoreLink("S2", "S4"); err != nil {
		t.Fatal(err)
	}
	if p := n.LookupRoute("S1", "S4"); len(p) != 3 || p[1] != "S2" {
		t.Fatalf("post-restore lookup = %v, want via S2 again", p)
	}
	invAfterTopo := c.Stats().Invalidations
	if invAfterTopo < 2 {
		t.Fatalf("fail+restore produced %d invalidations, want 2", invAfterTopo)
	}

	// Under the delay cost, link speed decides the route: S2's path wins
	// while its links are fast, and a live rate cut must flip the decision
	// through the cache.
	if err := n.SetRouting(RoutingConfig{Cost: routing.CostNameDelay}); err != nil {
		t.Fatal(err)
	}
	if p := n.LookupRoute("S1", "S4"); p[1] != "S2" {
		t.Fatalf("delay-cost lookup = %v, want via S2 at equal rates", p)
	}
	if err := n.SetLink("S2", "S4", 1e4); err != nil { // 100x slower
		t.Fatal(err)
	}
	if p := n.LookupRoute("S1", "S4"); p[1] != "S3" {
		t.Fatalf("lookup after rate cut = %v, want the S3 detour", p)
	}

	// A profile swap changes the max packet size feeding the delay cost;
	// whatever the route, the cache must be dropped.
	before := c.Stats().Invalidations
	prof := n.Config().Profile
	prof.MaxPacketBits = 2000
	if err := n.SetLinkProfile("S1", "S2", prof); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Invalidations != before+1 {
		t.Fatal("profile swap did not invalidate the route cache")
	}

	// Property sweep: after all that churn, every cached entry agrees with
	// a fresh uncached computation.
	n.SetRouteCache(nil)
	fresh := n.LookupRoute("S1", "S4")
	n.SetRouteCache(c)
	cached := n.LookupRoute("S1", "S4")
	if !slices.Equal(fresh, cached) {
		t.Fatalf("cached %v != fresh %v", cached, fresh)
	}
}
