package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runReport compiles and runs one scenario file and returns the formatted
// report — the byte-level artifact the bit-identity contract is defined on.
func runReport(t *testing.T, path string, opts Options) string {
	t.Helper()
	s, err := Load(path, opts)
	if err != nil {
		t.Fatalf("%s (shards %d): %v", filepath.Base(path), opts.Shards, err)
	}
	return s.Run().Format()
}

// firstDiff renders the first differing line of two reports for a readable
// failure message.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  sequential: %q\n  sharded:    %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestShardedBitIdentity is the contract of the sharded engine: for every
// shipped scenario, running the partitioned network on 2..4 parallel engines
// must produce the byte-identical report of the sequential run — same
// deliveries, same delays, same admission decisions, same trace rows.
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
			base := runReport(t, path, Options{Horizon: 3})
			for n := 2; n <= 4; n++ {
				if got := runReport(t, path, Options{Horizon: 3, Shards: n}); got != base {
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
		s, err := Compile(f, Options{Shards: shards})
		if err != nil {
			t.Fatalf("compile (shards %d): %v", shards, err)
		}
		if shards > 1 && !s.Net.Sharded() {
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

// TestShardedLinkDelayChange: an at-block may shorten a cross-shard link's
// delay below the lookahead the partition started with. The window rule
// follows the new delay from that barrier on, so the run reaches its horizon
// with the sequential report — east's arrivals at B move 4 ms earlier at
// 1 s, which shifts both flows' queueing on the shared B -> C hop.
func TestShardedLinkDelayChange(t *testing.T) {
	const src = `
net :: Net(rate 1Mbps, classes 2)
run :: Run(horizon 2s, trace 0.5s)
A, B, C :: Switch
A <-> B :: Link(delay 5ms)
B <-> C
east :: Datagram(path A -> B -> C)
local :: Datagram(path B -> C)
ce :: CBR(rate 400pps, size 1000bit)
cl :: Poisson(rate 500pps, size 1000bit)
ce -> east
cl -> local
at 1s { A -> B :: Link(delay 1ms) }
`
	f, err := Parse("delaychange.ispn", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	compileRun := func(shards int) string {
		s, err := Compile(f, Options{Shards: shards})
		if err != nil {
			t.Fatalf("compile (shards %d): %v", shards, err)
		}
		if shards > 1 && s.Net.ShardOf("A") == s.Net.ShardOf("B") {
			t.Fatalf("shards %d: A and B share a shard; the changed link does not cross", shards)
		}
		rep := s.Run().Format()
		if !s.Done() {
			t.Fatalf("shards %d: run stopped at %vs, short of its horizon", shards, s.Now())
		}
		if shards > 1 && s.Net.Lookahead() != 0.001 {
			t.Errorf("shards %d: lookahead after the change = %v, want 0.001", shards, s.Net.Lookahead())
		}
		return rep
	}
	base := compileRun(0)
	if got := compileRun(2); got != base {
		t.Errorf("shards=2 report differs from sequential: %s", firstDiff(base, got))
	}
}

// TestShardNetArgument checks the file-side spelling: Net(shards N) shards
// the network with no Options override, and the Options override wins.
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
	if !s.Net.Sharded() {
		t.Fatal("Net(shards 2) did not shard the network")
	}
	if s.Net.ShardOf("A") == s.Net.ShardOf("B") {
		t.Error("two-component two-shard partition put A and B on one shard")
	}
}

// TestShardPinsAndConflicts covers Switch(shard N) pins: honoring a valid
// pin, and the diagnostic (not a deadlock or a silent merge) when zero-delay
// links join nodes pinned apart.
func TestShardPinsAndConflicts(t *testing.T) {
	const pinned = `
net :: Net(rate 1Mbps, shards 2)
run :: Run(horizon 1s)
A :: Switch(shard 1)
B :: Switch(shard 0)
A <-> B :: Link(delay 1ms)
d :: Datagram(path A -> B)
c :: CBR(rate 50pps)
c -> d
`
	f, err := Parse("pins.ispn", []byte(pinned))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := Compile(f, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if got := s.Net.ShardOf("A"); got != 1 {
		t.Errorf("A pinned to shard 1, landed on %d", got)
	}
	if got := s.Net.ShardOf("B"); got != 0 {
		t.Errorf("B pinned to shard 0, landed on %d", got)
	}

	// A zero-delay link fuses its endpoints; pinning them apart must be a
	// compile-time diagnostic.
	const conflict = `
net :: Net(rate 1Mbps, shards 2)
run :: Run(horizon 1s)
A :: Switch(shard 0)
B :: Switch(shard 1)
A <-> B
d :: Datagram(path A -> B)
c :: CBR(rate 50pps)
c -> d
`
	f2, err := Parse("conflict.ispn", []byte(conflict))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Compile(f2, Options{})
	if err == nil {
		t.Fatal("conflicting pins across a zero-delay link compiled without error")
	}
	if !strings.Contains(err.Error(), "cannot land on different shards") {
		t.Errorf("conflict diagnostic unclear: %v", err)
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
bulk :: TCP(path A -> B -> C -> D, segment 8000bit)
back :: Datagram(path D -> C -> B -> A)
c :: CBR(rate 20pps)
c -> back
`
	f, err := Parse("tcpshard.ispn", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	base := func(shards int) string {
		s, err := Compile(f, Options{Shards: shards})
		if err != nil {
			t.Fatalf("compile (shards %d): %v", shards, err)
		}
		if shards > 1 {
			if a, d := s.Net.ShardOf("A"), s.Net.ShardOf("D"); a != d {
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
