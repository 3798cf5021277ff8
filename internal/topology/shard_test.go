package topology

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sim"
)

// TestConfigureShardsZeroDelayCross: a zero-delay link across a shard
// boundary would force zero-width windows; it must be a diagnostic, not a
// hang.
func TestConfigureShardsZeroDelayCross(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0)
	err := n.ConfigureShards([]int{0, 1}, 2)
	if err == nil {
		t.Fatal("zero-delay cross-shard link accepted")
	}
	if !strings.Contains(err.Error(), "zero propagation delay") {
		t.Errorf("diagnostic unclear: %v", err)
	}
	if n.Sharded() {
		t.Error("failed ConfigureShards left the network sharded")
	}
}

// TestConfigureShardsValidation covers the argument guards.
func TestConfigureShardsValidation(t *testing.T) {
	eng := sim.New()
	n := buildChain(eng, 2, 0.005)
	if err := n.ConfigureShards([]int{0}, 2); err == nil {
		t.Error("short assignment accepted")
	}
	if err := n.ConfigureShards([]int{0, 2}, 2); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := n.ConfigureShards([]int{0, 1}, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if err := n.ConfigureShards([]int{0, 1}, 2); err != nil {
		t.Fatalf("valid ConfigureShards: %v", err)
	}
	if err := n.ConfigureShards([]int{0, 1}, 2); err == nil {
		t.Error("double ConfigureShards accepted")
	}
}

// TestConfigureShardsWiring checks the partition bookkeeping: per-shard
// engines over the network's one pool, remote marking, and the smallest
// cross-shard delay as the lookahead.
func TestConfigureShardsWiring(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng)
	for _, name := range []string{"A", "B", "C"} {
		n.AddNode(name)
	}
	n.AddLink("A", "B", fifoPipe(1e6), 1e6, 0)     // same shard: zero delay fine
	n.AddLink("B", "C", fifoPipe(1e6), 1e6, 0.004) // cross
	n.AddLink("C", "B", fifoPipe(1e6), 1e6, 0.009) // cross, slower
	if err := n.ConfigureShards([]int{0, 0, 1}, 2); err != nil {
		t.Fatalf("ConfigureShards: %v", err)
	}
	if !n.Sharded() || len(n.Shards()) != 2 {
		t.Fatalf("Shards() = %v", n.Shards())
	}
	if got := n.Lookahead(); got != 0.004 {
		t.Errorf("lookahead = %v, want 0.004 (min cross delay)", got)
	}
	a, b, c := n.Node("A"), n.Node("B"), n.Node("C")
	if a.Engine() != b.Engine() || a.Engine() == c.Engine() {
		t.Error("shard engines mis-assigned")
	}
	if a.Engine() == eng || c.Engine() == eng {
		t.Error("a shard reuses the control engine")
	}
	if a.Pool() != n.Pool() || c.Pool() != n.Pool() || n.Shards()[1].Pool() != n.Pool() {
		t.Error("a shard does not share the network's pool")
	}
	if a.ShardIndex() != 0 || c.ShardIndex() != 1 {
		t.Errorf("shard indices = %d/%d, want 0/1", a.ShardIndex(), c.ShardIndex())
	}
	for _, pt := range n.Ports() {
		wantRemote := pt.From().Name() != "A" && pt.To().Name() != "A"
		if pt.Remote() != wantRemote {
			t.Errorf("port %s remote = %v, want %v", pt.Name(), pt.Remote(), wantRemote)
		}
	}
}

// TestRemoteDelivery: a remote port schedules its packet on the destination
// shard's engine, at transmit-complete + propagation delay and with the
// port's delivery key, and the release lands in the one shared pool.
func TestRemoteDelivery(t *testing.T) {
	ctrl := sim.New()
	n := NewNetwork(ctrl)
	n.AddNode("A")
	n.AddNode("B")
	n.AddLink("B", "A", fifoPipe(1e6), 1e6, 0.005)
	pt := n.AddLink("A", "B", fifoPipe(1e6), 1e6, 0.005) // Index 1
	if err := n.ConfigureShards([]int{0, 1}, 2); err != nil {
		t.Fatalf("ConfigureShards: %v", err)
	}
	src, dst := n.Node("A"), n.Node("B")
	var order []string
	r := routeTo(n, 7, []string{"A", "B"}, func(p *packet.Packet) { order = append(order, "deliver") })
	p := n.Pool().Get()
	p.FlowID = 7
	p.Size = 1000
	send(n, "A", r, p)
	// A transmits for 1 ms on 1 Mb/s; at transmit-complete the delivery
	// must already sit in B's heap, 5 ms out, before B has run at all.
	src.Engine().RunUntil(0.001)
	if a, b := src.Engine().Pending(), dst.Engine().Pending(); a != 0 || b != 1 {
		t.Fatalf("after the send: %d event(s) on the sending engine, %d on the destination, want 0 and 1", a, b)
	}
	at := dst.Engine().NextEventTime()
	if math.Abs(at-0.006) > 1e-12 {
		t.Errorf("delivery scheduled for %v, want 0.006", at)
	}
	// Same-instant neighbours on the destination engine with the keys just
	// below and above the port's: the delivery must fire between them.
	key := sim.KeyDelivery + uint32(pt.Index())
	dst.Engine().AtCallKeyed(at, key+1, func(any) { order = append(order, "after") }, nil)
	dst.Engine().AtCallKeyed(at, key-1, func(any) { order = append(order, "before") }, nil)
	sim.NewCoordinator(ctrl, []*sim.Engine{src.Engine(), dst.Engine()}, n.Lookahead()).Run(0.01)
	if fmt.Sprint(order) != "[before deliver after]" {
		t.Errorf("same-instant order = %v, want [before deliver after]", order)
	}
	if gets, puts, _ := n.Pool().Stats(); gets != 1 || puts != 1 {
		t.Errorf("pool gets/puts = %d/%d, want 1/1", gets, puts)
	}
}
