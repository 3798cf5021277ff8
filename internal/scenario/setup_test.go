package scenario

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// meshShape writes a world shaped like the benchmark's mesh_sharded text:
// clusters of three switches joined by zero-delay duplex links, a 5 ms
// duplex ring between clusters, and per cluster flowsPerCluster Predicted
// flows each fed by a Markov source, plus one Datagram flow fed by a Poisson
// source that crosses into the next cluster. Routes, classes and start
// offsets cycle through fixed patterns, so the text depends only on the two
// sizes.
func meshShape(clusters, flowsPerCluster int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# setup mesh: %d clusters on a 5 ms ring.\n", clusters)
	b.WriteString("net :: Net(rate 4Mbps, classes 2, targets [32ms, 320ms], buffer 200, shards 2)\n")
	b.WriteString("run :: Run(seed 1992, horizon 100s)\n")
	for c := 1; c <= clusters; c++ {
		fmt.Fprintf(&b, "c%da, c%db, c%dc :: Switch\nc%da <-> c%db <-> c%dc\n", c, c, c, c, c, c)
	}
	for c := 1; c <= clusters; c++ {
		fmt.Fprintf(&b, "c%dc <-> c%da :: Link(delay 5ms)\n", c, c%clusters+1)
	}
	routes := []string{"a -> b", "b -> c", "a -> b -> c", "c -> b", "b -> a", "c -> b -> a"}
	for c := 1; c <= clusters; c++ {
		for i := 1; i <= flowsPerCluster; i++ {
			hops := strings.Split(routes[(7*c+3*i)%len(routes)], " -> ")
			for k := range hops {
				hops[k] = fmt.Sprintf("c%d%s", c, hops[k])
			}
			fmt.Fprintf(&b, "p%d_%d :: Predicted(rate 85kbps, bucket 50kbit, delay 1s, loss 1%%, class %d, path %s)\n",
				c, i, i%2, strings.Join(hops, " -> "))
			fmt.Fprintf(&b, "m%d_%d :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start %dms); m%d_%d -> p%d_%d\n",
				c, i, (131*c+37*i)%1000, c, i, c, i)
		}
		n := c%clusters + 1
		fmt.Fprintf(&b, "d%d :: Datagram(path c%da -> c%db -> c%dc -> c%da -> c%db -> c%dc)\n", c, c, c, c, n, n, n)
		fmt.Fprintf(&b, "x%d :: Poisson(rate 600pps, size 1000bit, start %dms); x%d -> d%d\n", c, (53*c)%1000, c, c)
	}
	return b.String()
}

// setupMesh is the world BenchmarkSetup and TestSetupAllocationBudget build:
// mesh_sharded's size, 4 clusters of 80 flows.
func setupMesh() []byte { return []byte(meshShape(4, 80)) }

// churnShape writes a world shaped like the benchmark's churn_control text:
// a 64-node chordal ring (a ring plus an i–i+8 chord at every node, every
// link duplex, so 256 unified ports) with admission control, automatic
// routing and a small route cache, two call generators at opposite nodes,
// and four link flaps next to them. Setting it up is almost all ports.
func churnShape() []byte {
	const nodes, chord = 64, 8
	node := func(i int) string { return fmt.Sprintf("n%d", (i%nodes+nodes)%nodes+1) }
	var b strings.Builder
	b.WriteString("# setup churn: call churn on a 64-node chordal ring.\n")
	b.WriteString("net :: Net(rate 100Mbps, propdelay 1ms, classes 2, targets [32ms, 320ms], admission on, routing auto)\n")
	b.WriteString("run :: Run(seed 1992, horizon 50s)\n")
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
		dests := make([]string, 24)
		for i := range dests {
			dests[i] = node(origin + 3 + 5*i%(nodes-6))
		}
		fmt.Fprintf(&b, "calls%d :: Churn(every 2.5ms, hold 2s, service predicted, rate 32kbps, bucket 10kbit,\n"+
			"    delay 700ms, pps 2pps, size 1000bit, src cbr, from %s, locality 0.8,\n    to [%s])\n",
			k+1, node(origin), strings.Join(dests, ", "))
	}
	for i, lk := range [][2]int{{0, 1}, {-1, 0}, {nodes / 2, nodes/2 + 1}, {nodes/2 - 1, nodes / 2}} {
		at := 8 + 10*i
		fmt.Fprintf(&b, "at %ds { fail %s <-> %s }\nat %ds { restore %s <-> %s }\n",
			at, node(lk[0]), node(lk[1]), at+3, node(lk[0]), node(lk[1]))
	}
	return []byte(b.String())
}

func parseMesh(tb testing.TB, src []byte) *File {
	f, err := Parse("mesh.ispn", src)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// compileStart is the half of a setup after Parse.
func compileStart(tb testing.TB, f *File) {
	s, err := Compile(f, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	s.Start()
}

// BenchmarkSetup times one setup of the mesh world — Parse, then Compile and
// Start — and each half alone, and one whole setup of the churn world. Its
// B/op and allocs/op do not depend on the host's speed and repeat from run
// to run; TestSetupAllocationBudget gates them.
func BenchmarkSetup(b *testing.B) {
	src := setupMesh()
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			parseMesh(b, src)
		}
	})
	b.Run("compile+start", func(b *testing.B) {
		f := parseMesh(b, src)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			compileStart(b, f)
		}
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileStart(b, parseMesh(b, src))
		}
	})
	churn := churnShape()
	b.Run("churn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compileStart(b, parseMesh(b, churn))
		}
	})
}

// setupCost is the mean bytes and objects one call of fn allocates.
func setupCost(fn func()) (bytes, objects float64) {
	const runs = 5
	fn() // warm: lazily built tables are not a setup's cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// TestSetupAllocationBudget keeps the front end allocating for the world it
// builds rather than for the text it reads. On the mesh world (61 kB of text,
// 328 flows) a front end that grew every list by doubling allocated 1.79 MB
// in 5 997 objects to Parse and 647 kB in 4 774 objects to Compile+Start;
// on the churn world, whose 256 ports each cost 26 objects while a port's
// scheduler was a tree of small ones, a whole setup allocated about 540 kB
// in 6 800 objects. The budgets sit between that and what setup allocates
// now.
func TestSetupAllocationBudget(t *testing.T) {
	src, churn := setupMesh(), churnShape()
	f := parseMesh(t, src)
	for _, stage := range []struct {
		name           string
		bytes, objects float64
		fn             func()
	}{
		{"Parse", 900e3, 200, func() { parseMesh(t, src) }},
		{"Compile+Start", 600e3, 3000, func() { compileStart(t, f) }},
		{"churn Parse+Compile+Start", 500e3, 2000, func() { compileStart(t, parseMesh(t, churn)) }},
	} {
		bytes, objects := setupCost(stage.fn)
		t.Logf("%s: %.0f B in %.0f objects per setup (budget %.0f B, %.0f objects)", stage.name, bytes, objects, stage.bytes, stage.objects)
		if bytes > stage.bytes || objects > stage.objects {
			t.Errorf("%s allocates %.0f B in %.0f objects per setup, budget %.0f B and %.0f objects",
				stage.name, bytes, objects, stage.bytes, stage.objects)
		}
	}
}
