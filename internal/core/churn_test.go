package core

import (
	"fmt"
	"runtime"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/routing"
)

// Call churn — request, carry traffic, release, with flow ids that only rise —
// on the shape the benchmark's churn_control workload uses: a 64-node ring
// with a chord of 8 at every node, admission control and a small route cache.

const (
	churnRingNodes = 64
	churnRingChord = 8
)

var churnSpec = PredictedSpec{TokenRate: 32e3, BucketBits: 10e3, Delay: 0.7}

func churnRingName(i int) string { return fmt.Sprintf("n%d", i%churnRingNodes+1) }

func churnRing(t testing.TB) *Network {
	t.Helper()
	n := New(Config{Seed: 1992, LinkRate: 100e6, PropDelay: 0.001, AdmissionControl: true})
	for i := 0; i < churnRingNodes; i++ {
		n.AddSwitch(churnRingName(i))
	}
	for i := 0; i < churnRingNodes; i++ {
		n.ConnectDuplex(churnRingName(i), churnRingName(i+1))
		n.ConnectDuplex(churnRingName(i), churnRingName(i+churnRingChord))
	}
	if err := n.SetRouting(RoutingConfig{Auto: true}); err != nil {
		t.Fatal(err)
	}
	c, err := routing.NewCache(routing.CacheLRU, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.SetRouteCache(c)
	return n
}

// churnCall admits call id from the ring's first node to one of 16
// destinations (as many as the cache holds), looked up the way a scenario
// arrival does.
func churnCall(t testing.TB, n *Network, id uint32) *Flow {
	path := n.LookupRoute(churnRingName(0), churnRingName(3+int(id)%16*3))
	f, err := n.RequestPredictedClass(id, path, uint8(id%2), churnSpec)
	if err != nil {
		t.Fatalf("call %d refused: %v", id, err)
	}
	return f
}

// TestReleaseForgetsRoute: after Release the network holds nothing for the
// departed call — no route at any switch, no sink, and so no Flow, policer or
// recorder behind it — while a packet in flight at that moment is still
// delivered, because it carries the route itself.
func TestReleaseForgetsRoute(t *testing.T) {
	t.Run("in flight", func(t *testing.T) {
		n := newChain(t, false)
		f, err := n.RequestGuaranteed(1, []string{"A", "B", "C"}, GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			p := n.Pool().Get()
			p.Size = 1000
			f.Inject(p) // 5 ms each at the clock rate: queued at A when the call departs
		}
		n.Release(1)
		atRelease := f.Delivered()
		n.Run(1)
		if got := f.Delivered() - atRelease; got != 3 {
			t.Fatalf("%d of the 3 packets in flight at release were delivered", got)
		}
		if gets, puts, _ := n.Pool().Stats(); gets != puts {
			t.Fatalf("pool: %d gets, %d puts", gets, puts)
		}
	})

	t.Run("state", func(t *testing.T) {
		const warm, calls, live = 500, 5000, 8
		n := churnRing(t)
		id := uint32(0)
		cycle := func(k int) {
			for i := 0; i < k; i++ {
				id++
				churnCall(t, n, id)
				if id > live {
					n.Release(id - live)
				}
			}
		}
		heap := func() int64 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return int64(m.HeapAlloc)
		}
		cycle(warm) // paths interned, cache and ledgers at their working size
		before := heap()
		cycle(calls)
		perCall := float64(heap()-before) / calls
		t.Logf("%.1f B retained per departed call", perCall)
		if perCall > 100 {
			t.Errorf("%.0f B retained per departed call, want under 100", perCall)
		}

		// Exactly the live calls still have a route: a packet that names a
		// departed call by id finds nothing at its ingress.
		strays := 0
		for _, nd := range n.Topology().Nodes() {
			nd.SetDefaultSink(func(*packet.Packet) { strays++ })
		}
		ingress := n.Topology().Node(churnRingName(0))
		for k := uint32(1); k <= id; k++ {
			ingress.Inject(&packet.Packet{FlowID: k, Size: 1000, Class: packet.Predicted, Priority: uint8(k % 2)})
		}
		if want := int(id) - live; strays != want {
			t.Fatalf("%d of %d ids found no route, want %d (all but the %d live calls)", strays, id, want, live)
		}
		n.Run(1)
		if len(n.Flows()) != live {
			t.Fatalf("%d flows live, want %d", len(n.Flows()), live)
		}
		for _, f := range n.Flows() {
			if f.Delivered() != 1 {
				t.Errorf("live call %d delivered %d packets, want 1", f.ID, f.Delivered())
			}
		}
	})
}

// TestCallSetupAllocation keeps call set-up cheap: what one request+release
// cycle allocates must not depend on how many ids have been issued. The
// per-node tables this replaced cost 2.5 KB per cycle at 5 000 ids, rising
// with the id; a route per flow costs 0.5 KB.
func TestCallSetupAllocation(t *testing.T) {
	const calls, budget = 5000, 1000
	n := churnRing(t)
	for id := uint32(1); id <= 100; id++ {
		churnCall(t, n, id)
		n.Release(id)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := uint32(101); id <= 100+calls; id++ {
		churnCall(t, n, id)
		n.Release(id)
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.0f B allocated per call", perCall)
	if perCall > budget {
		t.Errorf("%.0f B allocated per request+release, budget %d", perCall, budget)
	}
}
