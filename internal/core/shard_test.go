package core

import (
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
)

// clusterNet builds two zero-delay clusters {A,B} and {C,D} joined by a
// duplex 5 ms link B<->C — two components the partitioner must keep whole.
func clusterNet() *Network {
	n := New(Config{LinkRate: 1e6})
	for _, s := range []string{"A", "B", "C", "D"} {
		n.AddSwitch(s)
	}
	n.Connect("A", "B")
	n.Connect("B", "A")
	n.Connect("C", "D")
	n.Connect("D", "C")
	n.ConnectWith("B", "C", 1e6, 0.005, nil)
	n.ConnectWith("C", "B", 1e6, 0.005, nil)
	return n
}

// TestSetShardsPartition: zero-delay-joined nodes travel together, the two
// components land on different shards, and the lookahead is the cross link's
// delay.
func TestSetShardsPartition(t *testing.T) {
	n := clusterNet()
	if err := n.SetShards(PartitionSpec{Shards: 2}); err != nil {
		t.Fatalf("SetShards: %v", err)
	}
	topo := n.Topology()
	if !topo.Sharded() {
		t.Fatal("network not sharded")
	}
	a, b, c, d := shardOf(n, "A"), shardOf(n, "B"), shardOf(n, "C"), shardOf(n, "D")
	if a != b || c != d {
		t.Errorf("zero-delay clusters split: A=%d B=%d C=%d D=%d", a, b, c, d)
	}
	if a == c {
		t.Error("both clusters packed onto one shard with two available")
	}
	if got := topo.Lookahead(); got != 0.005 {
		t.Errorf("lookahead = %v, want 0.005", got)
	}
}

// TestSetShardsTogether: Together fuses the two clusters onto one shard,
// although the link between them has a delay.
func TestSetShardsTogether(t *testing.T) {
	n := clusterNet()
	if err := n.SetShards(PartitionSpec{Shards: 2, Together: [][2]string{{"A", "D"}}}); err != nil {
		t.Fatalf("SetShards: %v", err)
	}
	for _, s := range []string{"B", "C", "D"} {
		if shardOf(n, s) != shardOf(n, "A") {
			t.Errorf("shard of %s = %d, shard of A = %d: fused clusters split", s, shardOf(n, s), shardOf(n, "A"))
		}
	}
}

// shardOf returns the index of the shard owning the named switch.
func shardOf(n *Network, name string) int { return n.Topology().Node(name).ShardIndex() }

// TestSetShardsGuards covers the ordering and validation rules.
func TestSetShardsGuards(t *testing.T) {
	if err := clusterNet().SetShards(PartitionSpec{Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
	if err := clusterNet().SetShards(PartitionSpec{Shards: 2, Together: [][2]string{{"A", "nope"}}}); err == nil {
		t.Error("unknown Together endpoint accepted")
	}

	n := clusterNet()
	if _, err := n.AddDatagramFlow(1, []string{"A", "B"}); err != nil {
		t.Fatalf("AddDatagramFlow: %v", err)
	}
	if err := n.SetShards(PartitionSpec{Shards: 2}); err == nil {
		t.Error("SetShards after flow creation accepted")
	}

	n2 := clusterNet()
	if err := n2.SetShards(PartitionSpec{Shards: 2}); err != nil {
		t.Fatalf("SetShards: %v", err)
	}
	if err := n2.SetShards(PartitionSpec{Shards: 2}); err == nil {
		t.Error("double SetShards accepted")
	}

	n3 := New(Config{})
	if err := n3.SetShards(PartitionSpec{Shards: 1}); err == nil {
		t.Error("SetShards on an empty topology accepted")
	}
}

// runCluster drives one CBR flow across the cluster boundary and one inside
// a cluster, returning (cross delivered, cross mean delay, local delivered).
// shards 0 = sequential.
func runCluster(t *testing.T, shards int) (int64, float64, int64) {
	t.Helper()
	n := clusterNet()
	if shards > 0 {
		if err := n.SetShards(PartitionSpec{Shards: shards}); err != nil {
			t.Fatalf("SetShards(%d): %v", shards, err)
		}
	}
	cross, err := n.AddDatagramFlow(1, []string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatalf("cross flow: %v", err)
	}
	local, err := n.AddDatagramFlow(2, []string{"D", "C"})
	if err != nil {
		t.Fatalf("local flow: %v", err)
	}
	for _, f := range []*Flow{cross, local} {
		f := f
		src := source.NewCBR(source.CBRConfig{SizeBits: 1000, Rate: 200, RNG: sim.DeriveRNG(7, "s")})
		source.AttachPool(src, f.IngressPool())
		src.Start(f.IngressEngine(), func(p *packet.Packet) { f.Inject(p) })
	}
	n.Run(2)
	return cross.Delivered(), cross.Meter().Mean(), local.Delivered()
}

// TestShardedCoreRunMatchesSequential: the same two-flow workload delivers
// the same counts and the bit-identical mean delay on 1..3 shards as on the
// plain engine.
func TestShardedCoreRunMatchesSequential(t *testing.T) {
	d0, m0, l0 := runCluster(t, 0)
	if d0 == 0 || l0 == 0 {
		t.Fatalf("sequential run delivered nothing (cross %d, local %d)", d0, l0)
	}
	for shards := 1; shards <= 3; shards++ {
		d, m, l := runCluster(t, shards)
		if d != d0 || m != m0 || l != l0 {
			t.Errorf("shards=%d: cross %d mean %v local %d, want %d %v %d", shards, d, m, l, d0, m0, l0)
		}
	}
}
