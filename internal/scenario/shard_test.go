package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// withNetArg returns f with arg written into its Net declaration, or a
// Net(arg) declared first where f has none; f itself is never changed.
func withNetArg(t *testing.T, f *File, arg string) *File {
	t.Helper()
	g, err := Parse("net.ispn", fmt.Appendf(nil, "net :: Net(%s)\n", arg))
	if err != nil {
		t.Fatal(err)
	}
	out := *f
	out.Decls = slices.Clone(f.Decls)
	for i, d := range out.Decls {
		if d.Kind == "Net" {
			net := *d
			net.Args = append(slices.Clip(d.Args), g.Decls[0].Args...)
			out.Decls[i] = &net
			return &out
		}
	}
	out.Decls = slices.Insert(out.Decls, 0, g.Decls[0])
	return &out
}

// withShards returns f as a file that asks for n shards reads: shards n
// written into its Net declaration (withNetArg). n 0 returns f.
func withShards(t *testing.T, f *File, n int) *File {
	t.Helper()
	if n == 0 {
		return f
	}
	return withNetArg(t, f, fmt.Sprintf("shards %d", n))
}

// withPropDelay returns f with propdelay 1ms written into its Net
// declaration (withNetArg): every link that names no delay of its own
// then carries 1 ms of propagation, which the partitioner can cut.
func withPropDelay(t *testing.T, f *File) *File {
	t.Helper()
	return withNetArg(t, f, "propdelay 1ms")
}

// parseLibrary parses one scenario file of the library.
func parseLibrary(t *testing.T, path string) *File {
	t.Helper()
	f, err := ParseFile(path)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	return f
}

// populatedShards is how many shards of s's network hold a node.
func populatedShards(s *Sim) int {
	held := map[int]bool{}
	for _, nd := range s.Net.Topology().Nodes() {
		held[nd.ShardIndex()] = true
	}
	return len(held)
}

// crossShard returns f if two shards of it hold nodes, else f with a
// propagation delay written in (withPropDelay): links with no delay give
// the partitioner nothing to cut, so such a file shards onto one engine
// and its sharded runs never carry a packet across shards.
func crossShard(t *testing.T, f *File) *File {
	t.Helper()
	s, err := Compile(withShards(t, f, 2), Options{})
	if err != nil {
		t.Fatalf("%s (shards 2): %v", f.Name, err)
	}
	if populatedShards(s) >= 2 {
		return f
	}
	return withPropDelay(t, f)
}

// loadSharded writes shards n into f (withShards; n 0 compiles it as
// written) and compiles it; with n > 0 it fails unless at least two shards
// hold a node.
func loadSharded(t *testing.T, f *File, n int, opts Options) *Sim {
	t.Helper()
	s, err := Compile(withShards(t, f, n), opts)
	if err != nil {
		t.Fatalf("%s (shards %d): %v", f.Name, n, err)
	}
	if held := populatedShards(s); n > 0 && held < 2 {
		t.Fatalf("%s: shards %d written but %d shard holds a node", f.Name, n, held)
	}
	return s
}

// firstDiff renders the first differing line of two reports, the expected
// one first, for a readable failure message.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestShardedBitIdentity is the contract of the sharded engine: for every
// shipped scenario, running the partitioned network on 2..4 parallel engines
// must produce the byte-identical report of the sequential run — same
// deliveries, same delays, same admission decisions, same trace rows. A
// file whose links carry no delay runs, in every leg, with one written in
// (crossShard), so that its sharded legs spread it over the shards.
func TestShardedBitIdentity(t *testing.T) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		t.Fatalf("scenario library missing: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ispn") {
			continue
		}
		path := filepath.Join(libraryDir, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			// The formatted report is the byte-level artifact the
			// bit-identity contract is defined on.
			f := crossShard(t, parseLibrary(t, path))
			base := loadSharded(t, f, 0, Options{Horizon: 3}).Run().Format()
			for n := 2; n <= 4; n++ {
				if got := loadSharded(t, f, n, Options{Horizon: 3}).Run().Format(); got != base {
					t.Errorf("shards=%d report differs from sequential: %s", n, firstDiff(base, got))
				}
			}
		})
	}
}

// TestShardedSameTimestampCrossShard pins two CBR flows crossing a shard
// boundary in opposite directions with identical rates and phases, so
// cross-shard deliveries land on both engines at exactly equal timestamps —
// the tie the canonical event key must break identically in both modes.
func TestShardedSameTimestampCrossShard(t *testing.T) {
	const src = `
net :: Net(rate 1Mbps, classes 2)
run :: Run(horizon 2s, trace 0.5s)
A, B :: Switch
A <-> B :: Link(delay 5ms)
east :: Datagram(path A -> B)
west :: Datagram(path B -> A)
ce :: CBR(rate 100pps, size 1000bit)
cw :: CBR(rate 100pps, size 1000bit)
ce -> east
cw -> west
`
	f, err := Parse("cross.ispn", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	compileRun := func(shards int) string {
		s, err := Compile(withShards(t, f, shards), Options{})
		if err != nil {
			t.Fatalf("compile (shards %d): %v", shards, err)
		}
		if shards > 1 && !s.Net.Topology().Sharded() {
			t.Fatalf("shards %d requested but network is not sharded", shards)
		}
		return s.Run().Format()
	}
	base := compileRun(0)
	if !strings.Contains(base, "east") {
		t.Fatalf("report lost the east flow:\n%s", base)
	}
	for n := 2; n <= 4; n++ {
		if got := compileRun(n); got != base {
			t.Errorf("shards=%d report differs from sequential: %s", n, firstDiff(base, got))
		}
	}
}

// TestShardNetArgument checks the file-side spelling: Net(shards N) shards
// the network.
func TestShardNetArgument(t *testing.T) {
	const src = `
net :: Net(rate 1Mbps, shards 2)
run :: Run(horizon 1s)
A, B :: Switch
A <-> B :: Link(delay 2ms)
d :: Datagram(path A -> B)
c :: CBR(rate 50pps)
c -> d
`
	f, err := Parse("netshards.ispn", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := Compile(f, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	topo := s.Net.Topology()
	if !topo.Sharded() {
		t.Fatal("Net(shards 2) did not shard the network")
	}
	if topo.Node("A").ShardIndex() == topo.Node("B").ShardIndex() {
		t.Error("two-component two-shard partition put A and B on one shard")
	}
}

// TestShardOptionValidation rejects a nonsensical shards count in the file.
func TestShardOptionValidation(t *testing.T) {
	const src = `
net :: Net(rate 1Mbps, shards 0)
A, B :: Switch
A <-> B
d :: Datagram(path A -> B)
c :: CBR(rate 50pps)
c -> d
`
	f, err := Parse("zero.ispn", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Compile(f, Options{}); err == nil || !strings.Contains(err.Error(), "shards must be at least 1") {
		t.Errorf("Net(shards 0) not rejected: %v", err)
	}
}

// TestShardedTCPTogether compiles a sharded scenario with a TCP connection:
// the compiler must fuse the connection's endpoints into one shard (the
// Together constraint) instead of panicking in tcp.NewConnection.
func TestShardedTCPTogether(t *testing.T) {
	const src = `
net :: Net(rate 1Mbps, classes 2)
run :: Run(horizon 2s)
A, B, C, D :: Switch
A <-> B :: Link(delay 2ms)
B <-> C :: Link(delay 2ms)
C <-> D :: Link(delay 2ms)
bulk :: TCP(path A -> B -> C -> D)
back :: Datagram(path D -> C -> B -> A)
c :: CBR(rate 20pps)
c -> back
`
	f, err := Parse("tcpshard.ispn", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	base := func(shards int) string {
		s, err := Compile(withShards(t, f, shards), Options{})
		if err != nil {
			t.Fatalf("compile (shards %d): %v", shards, err)
		}
		if shards > 1 {
			topo := s.Net.Topology()
			if a, d := topo.Node("A").ShardIndex(), topo.Node("D").ShardIndex(); a != d {
				t.Fatalf("TCP endpoints split across shards %d and %d", a, d)
			}
		}
		return s.Run().Format()
	}
	seq := base(0)
	for n := 2; n <= 4; n++ {
		if got := base(n); got != seq {
			t.Errorf("shards=%d report differs from sequential: %s", n, firstDiff(seq, got))
		}
	}
}
