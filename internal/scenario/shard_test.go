package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// withShards returns f with shards n written into its Net declaration, or a
// Net(shards n) declared first where f has none; f itself is never changed.
func withShards(t *testing.T, f *File, n int) *File {
	t.Helper()
	g, err := Parse("net.ispn", fmt.Appendf(nil, "net :: Net(shards %d)\n", n))
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

// TestShardedBitIdentity: Net(shards N) is checked and then ignored, so every
// library file — those declaring TCP connections among them — reports the
// same bytes with shards 3 written into its Net line as without it. bench/'s
// mesh_sharded twin relies on this until bench/ stops writing the argument
// (ROADMAP item 7).
func TestShardedBitIdentity(t *testing.T) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		t.Fatalf("scenario library missing: %v", err)
	}
	tcp := false
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ispn") {
			continue
		}
		path := filepath.Join(libraryDir, e.Name())
		f := parseLibrary(t, path)
		tcp = tcp || slices.ContainsFunc(f.Decls, func(d *Decl) bool { return d.Kind == "TCP" })
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			base := load(t, f, Options{Horizon: 3}).Run().Format()
			if got := load(t, withShards(t, f, 3), Options{Horizon: 3}).Run().Format(); got != base {
				t.Errorf("shards 3 changed the report: %s", firstDiff(base, got))
			}
		})
	}
	if !tcp {
		t.Error("no library file declares a TCP connection")
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

// TestShardNetArgument checks the file-side spelling: Net(shards N) compiles,
// leaves the network on its one engine (no shards) and changes no byte of
// the report.
func TestShardNetArgument(t *testing.T) {
	const src = `
net :: Net(rate 1Mbps)
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
	base := load(t, f, Options{}).Run().Format()
	s := load(t, withShards(t, f, 2), Options{})
	if sh := s.Net.Topology().Shards(); sh != nil {
		t.Fatalf("Net(shards 2) built %d shards; the network runs on one engine", len(sh))
	}
	if got := s.Run().Format(); got != base {
		t.Errorf("Net(shards 2) changed the report: %s", firstDiff(base, got))
	}
}

// TestShardedTCPTogether compiles a scenario with a TCP connection and
// shards 2..4 written in: it must compile (tcp.NewConnection used to panic
// on endpoints put on different shards) and report what the file without
// the argument reports.
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
	seq := load(t, f, Options{}).Run().Format()
	if !strings.Contains(seq, "bulk") {
		t.Fatalf("report lost the TCP connection:\n%s", seq)
	}
	for n := 2; n <= 4; n++ {
		if got := load(t, withShards(t, f, n), Options{}).Run().Format(); got != seq {
			t.Errorf("shards=%d report differs from sequential: %s", n, firstDiff(seq, got))
		}
	}
}
