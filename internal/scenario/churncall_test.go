package scenario

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/stats"
)

// churnControlShape is the benchmark's churn_control world, unrotated: a
// 64-node ring with a chord of 8 at every node, admission control, automatic
// rerouting and a 16-entry LRU route cache; two origins launch a call every
// 2.5 ms each toward 24 Zipf-skewed destinations, and the ring links next to
// the origins flap one after another, 3 s down every 10 s.
func churnControlShape(horizon float64) string {
	const nodes, chord = 64, 8
	offsets := []int{9, 17, 3, 26, 40, 12, 55, 20, 6, 47, 29, 35, 14, 60, 23, 43, 50, 5, 38, 57, 11, 30, 45, 19}
	node := func(i int) string { return fmt.Sprintf("n%d", (i%nodes+nodes)%nodes+1) }
	var b strings.Builder
	b.WriteString("net :: Net(rate 100Mbps, propdelay 1ms, classes 2, targets [32ms, 320ms], admission on, routing auto)\n")
	fmt.Fprintf(&b, "run :: Run(seed 1992, horizon %gs)\n", horizon)
	names := make([]string, nodes)
	for i := range names {
		names[i] = node(i)
	}
	fmt.Fprintf(&b, "%s :: Switch\n", strings.Join(names, ", "))
	for i := range names {
		fmt.Fprintf(&b, "%s <-> %s; %s <-> %s\n", node(i), node(i+1), node(i), node(i+chord))
	}
	b.WriteString("cache :: RouteCache(scheme lru, size 16)\n")
	for k, origin := range []int{0, nodes / 2} {
		dests := make([]string, len(offsets))
		for i, off := range offsets {
			dests[i] = node(origin + off)
		}
		fmt.Fprintf(&b, "calls%d :: Churn(every 2.5ms, hold 2s, service predicted, rate 32kbps, bucket 10kbit,\n"+
			"    delay 700ms, pps 2pps, size 1000bit, src cbr, from %s, locality 0.8, to [%s])\n",
			k+1, node(origin), strings.Join(dests, ", "))
	}
	for i, lk := range [][2]int{{0, 1}, {-1, 0}, {nodes / 2, nodes/2 + 1}, {nodes/2 - 1, nodes / 2}} {
		at := 4 + 10*float64(i)
		if at+3 >= horizon {
			break
		}
		fmt.Fprintf(&b, "at %gs { fail %s <-> %s }\nat %gs { restore %s <-> %s }\n",
			at, node(lk[0]), node(lk[1]), at+3, node(lk[0]), node(lk[1]))
	}
	return b.String()
}

// churnTotals sums the churn counters over a run's churn elements.
func churnTotals(s *Sim) (arrivals, departed, samples int64) {
	for _, ch := range s.churns {
		arrivals += ch.arrivals
		departed += ch.departed
		samples += int64(ch.delays.Count())
	}
	return arrivals, departed, samples
}

// TestChurnArrivalAllocation keeps a churn call at two allocations, its Flow
// and its churnCall, plus the route search on a cache miss: at most three
// per arrival on churn_control's shape once the run is warm, everything a
// call's packets do included.
func TestChurnArrivalAllocation(t *testing.T) {
	const budget = 3
	s := mustCompile(t, churnControlShape(15), Options{})
	s.StepTo(5) // paths interned, cache, ledgers and live calls at their working size
	a0, _, _ := churnTotals(s)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.StepTo(15)
	runtime.ReadMemStats(&after)
	a1, _, _ := churnTotals(s)
	perArrival := float64(after.Mallocs-before.Mallocs) / float64(a1-a0)
	t.Logf("%.2f allocations per arrival over %d arrivals", perArrival, a1-a0)
	if perArrival > budget {
		t.Errorf("%.2f allocations per churn arrival, budget %d", perArrival, budget)
	}
}

// TestChurnRetention: a departed call keeps nothing — the live heap grows by
// at most 3 B per delivered sample (the churn's recorder; about 2.2 B
// measured) and nothing per departed call, not by the call's Flow, route,
// bucket and source.
func TestChurnRetention(t *testing.T) {
	const perSample = 3
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	s := mustCompile(t, churnControlShape(20), Options{})
	s.StepTo(8) // as many calls live as ever will be: 2 s holds, warm-up ledgers full
	h0 := heap()
	_, d0, n0 := churnTotals(s)
	s.StepTo(20)
	h1 := heap()
	_, d1, n1 := churnTotals(s)
	grew, allowed := h1-h0, perSample*(n1-n0)
	t.Logf("heap grew %d B over %d departures and %d samples (%.2f B per sample)",
		grew, d1-d0, n1-n0, float64(grew)/float64(n1-n0))
	if grew > allowed {
		t.Errorf("heap grew %d B, budget %d B (%d B per sample, none per departed call)", grew, allowed, perSample)
	}
	runtime.KeepAlive(s)
}

// A packet in flight when its call departs still counts: the churn row's
// Delivered, mean, maximum and percentiles are those of every delivery, the
// late ones included, with the delays summed in delivery order.
func TestChurnCountsPacketsInFlightAtDeparture(t *testing.T) {
	s := mustCompile(t, `
net :: Net(rate 1Mbps, propdelay 50ms, admission on)
run :: Run(seed 3, horizon 20s, percentiles [50%, 99%, 99.9%])
A, B, C :: Switch
A -> B; B -> C
calls :: Churn(every 300ms, hold 1s, rate 80kbps, bucket 10kbit, delay 700ms,
               pps 50pps, size 1000bit, src cbr, paths [A -> B -> C])
`, Options{})
	all := stats.NewRecorder()
	late := 0
	s.Net.OnFlow(func(f *core.Flow) {
		f.Tap(func(_ *packet.Packet, q float64) {
			all.Add(q)
			if s.Net.Flow(f.ID) == nil {
				late++
			}
		})
	})
	row := s.Run().Churns[0]
	if late == 0 {
		t.Fatal("no packet was in flight when its call departed")
	}
	if row.Delivered != int64(all.Count()) {
		t.Errorf("row delivered %d, the flows delivered %d (%d after their call departed)", row.Delivered, all.Count(), late)
	}
	if want := all.Mean() * 1e3; row.MeanMS != want {
		t.Errorf("row mean %v ms, want %v", row.MeanMS, want)
	}
	if want := all.Max() * 1e3; row.MaxMS != want {
		t.Errorf("row max %v ms, want %v", row.MaxMS, want)
	}
	for i, p := range []float64{0.5, 0.99, 0.999} {
		if want := all.Percentile(p) * 1e3; row.PctMS[i] != want {
			t.Errorf("row p%v %v ms, want %v", p*100, row.PctMS[i], want)
		}
	}
}

// TestChurnStreamMatchesNamedDerive: a call's source stream, seeded from its
// arrival number without building its name, is the stream the name
// "churn:<churn>:<k>" derives, draw for draw.
func TestChurnStreamMatchesNamedDerive(t *testing.T) {
	const seed = 1992
	ks := []int64{1 << 31, 1e12}
	for k := int64(1); k <= 1e4; k++ {
		ks = append(ks, k)
	}
	for _, name := range []string{"calls1", "calls2", "c", "hot-spot", "x9"} {
		streams := churnStreams(seed, name)
		for _, k := range ks {
			draws := 3
			if k%997 == 0 || k > 1e4 {
				draws = 300 // past the lazy stream's promotion
			}
			var got sim.RNG
			got.Init(streams.SeedOf(k))
			want := sim.DeriveRNG(seed, fmt.Sprintf("churn:%s:%d", name, k))
			for i := 0; i < draws; i++ {
				if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("churn %s call %d draw %d: %v, the named stream gives %v", name, k, i, g, w)
				}
			}
		}
	}
}
