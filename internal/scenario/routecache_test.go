package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// localitySrc is a minimal destination-locality scenario: a star, a small
// LRU cache, a hot-spot churn, and a static flow so traffic moves from t=0.
const localitySrc = `
net :: Net(rate 1Mbps, classes 2, admission on)
run :: Run(seed 7, horizon 30s)
site :: Star(leaves 4, rate 2Mbps, delay 2ms)
cache :: RouteCache(scheme lru, size 8)
conf :: Predicted(rate 85kbps, delay 500ms, path site.leaf1 -> site.hub -> site.leaf2)
cam :: CBR(rate 85pps, size 1000bit)
cam -> conf
calls :: Churn(every 500ms, hold 4s, service predicted, rate 32kbps, pps 32pps,
               from site.leaf1, to [site.leaf2, site.leaf3, site.leaf4], locality 1.2)
`

func TestRouteCacheElementReports(t *testing.T) {
	rep := mustCompile(t, localitySrc, Options{}).Run()
	rc := rep.RouteCache
	if rc == nil {
		t.Fatal("RouteCache element produced no report section")
	}
	if rc.Scheme != "lru" || rc.Size != 8 {
		t.Fatalf("cache config = %s/%d, want lru/8", rc.Scheme, rc.Size)
	}
	// ~60 arrivals over 3 destinations through an 8-entry cache: after the
	// first three misses every lookup is a hit.
	if rc.Misses == 0 || rc.Hits <= rc.Misses {
		t.Fatalf("cache stats %+v: want a few misses and mostly hits", rc)
	}
	if !strings.Contains(rep.Format(), "route cache (lru, 8 entries):") {
		t.Fatalf("formatted report lacks the route cache line:\n%s", rep.Format())
	}
	if len(rep.Churns) != 1 || rep.Churns[0].Admitted == 0 {
		t.Fatalf("locality churn admitted nothing: %+v", rep.Churns)
	}
	if rep.Churns[0].Delivered == 0 {
		t.Fatal("locality churn flows delivered no traffic")
	}
}

// TestChurnLocalityIsSkewed checks the Zipf draw does what the knob says:
// with strong locality nearly every call goes to the first destination, so
// a cache sized for one entry still serves most lookups.
func TestChurnLocalityIsSkewed(t *testing.T) {
	skewed := strings.Replace(localitySrc, "locality 1.2", "locality 6", 1)
	skewed = strings.Replace(skewed, "size 8", "size 1", 1)
	rep := mustCompile(t, skewed, Options{}).Run()
	rc := rep.RouteCache
	if rc == nil {
		t.Fatal("no cache section")
	}
	// 1/1^6 : 1/2^6 : 1/3^6 puts ~98% of draws on the first destination; a
	// single-entry cache then hits far more than it misses.
	if rc.Hits < 3*rc.Misses {
		t.Fatalf("single-entry cache under locality 6: %d hits / %d misses, want heavy hitting", rc.Hits, rc.Misses)
	}
}

func TestRouteCacheAndLocalityCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"duplicate cache",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nc1 :: RouteCache\nc2 :: RouteCache\nd :: Datagram(path A -> B)\n",
			"duplicate RouteCache"},
		{"bad scheme",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nc1 :: RouteCache(scheme arc)\nd :: Datagram(path A -> B)\n",
			"must be one of"},
		{"zero size",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nc1 :: RouteCache(size 0)\nd :: Datagram(path A -> B)\n",
			"size must be at least 1"},
		{"from without to",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nch :: Churn(every 1s, hold 2s, rate 32kbps, pps 32pps, from A)\n",
			"needs both from"},
		{"locality without destinations",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nch :: Churn(every 1s, hold 2s, rate 32kbps, pps 32pps, locality 2, paths [A -> B])\n",
			"not both"},
		{"path and from",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nch :: Churn(every 1s, hold 2s, rate 32kbps, pps 32pps, paths [A -> B], from A, to [B])\n",
			"not both"},
		{"destination is origin",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nch :: Churn(every 1s, hold 2s, rate 32kbps, pps 32pps, from A, to [A])\n",
			"origin itself"},
		{"destination not a switch",
			"net :: Net(rate 1Mbps)\nA, B :: Switch\nA <-> B\nd :: Datagram(path A -> B)\nch :: Churn(every 1s, hold 2s, rate 32kbps, pps 32pps, from A, to [d])\n",
			"not a switch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Parse("err.ispn", []byte(tc.src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Compile(f, Options{})
			if err == nil {
				t.Fatal("compile succeeded, want an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestUnreachableDestinationCountsAsRejection fails the only link to a churn
// destination: arrivals drawn to it find no route and are refused — counted,
// deterministic, no panic — and resume after restore.
func TestUnreachableDestinationCountsAsRejection(t *testing.T) {
	src := `
net :: Net(rate 1Mbps, admission on)
run :: Run(seed 7, horizon 30s)
site :: Star(leaves 2, rate 2Mbps, delay 2ms)
cache :: RouteCache(scheme lru, size 4)
conf :: Predicted(rate 85kbps, delay 500ms, path site.leaf1 -> site.hub -> site.leaf2)
cam :: CBR(rate 85pps, size 1000bit)
cam -> conf
calls :: Churn(every 500ms, hold 2s, service predicted, rate 32kbps, pps 32pps,
               from site.leaf1, to [site.leaf2])
at 5s { fail site.hub -> site.leaf2 }
at 25s { restore site.hub -> site.leaf2 }
`
	rep := mustCompile(t, src, Options{}).Run()
	ch := rep.Churns[0]
	if ch.Rejected == 0 {
		t.Fatalf("no arrivals were refused while the destination was unreachable: %+v", ch)
	}
	if ch.Admitted == 0 {
		t.Fatalf("no arrivals admitted outside the outage: %+v", ch)
	}
	if rep.RouteCache == nil {
		t.Fatal("report has no route-cache section")
	}
	if rep.RouteCache.Invalidations < 2 {
		t.Fatalf("fail+restore caused %d invalidations, want >= 2", rep.RouteCache.Invalidations)
	}
}

// TestCachedRunsAreByteIdentical is the route cache's correctness contract
// at the scenario level: for every shipped scenario, a run with a RouteCache
// declaration appended must report, cache section aside, exactly what the
// uncached run does. The cache may only change how fast routes are computed,
// never which routes. A file's own RouteCache line is dropped from both
// runs.
func TestCachedRunsAreByteIdentical(t *testing.T) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		t.Fatalf("scenario library missing: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ispn") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(libraryDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var plain strings.Builder
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if !strings.Contains(line, ":: RouteCache") {
				plain.WriteString(line)
			}
		}
		run := func(t *testing.T, src string) string {
			f, err := Parse("test.ispn", []byte(src))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			s, err := Compile(f, Options{Horizon: 3})
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			rep := s.Run()
			rep.RouteCache = nil
			return rep.Format()
		}
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			base := run(t, plain.String())
			for _, scheme := range []string{"lru", "direct"} {
				got := run(t, plain.String()+"\nforced :: RouteCache(scheme "+scheme+", size 16)\n")
				if got != base {
					t.Errorf("scheme=%s: cached report differs: %s", scheme, firstDiff(base, got))
				}
			}
		})
	}
}
