package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Workload sizes. They are constants, not flags: a benchmark whose size can
// be tuned per run has no baseline. Each is chosen so one repeat measures
// about three seconds of wall on the two-core reference host.
const (
	chainHorizon = 2000.0 // simulated seconds of the Table-3 chain

	meshClusters        = 4
	meshFlowsPerCluster = 80
	meshHorizon         = 100.0

	churnNodes   = 64
	churnDests   = 24
	churnHorizon = 50.0

	wanSessions = 24
	wanHorizon  = 600.0
)

// genRNG derives the generator stream of one workload from the benchmark
// seed, so two workloads never share draws and one seed always gives the
// same text.
func genRNG(seed int64, workload string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range []byte(workload) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// startMS draws a source start offset in [0, 1 s) at millisecond resolution.
func startMS(r *rand.Rand) string { return fmt.Sprintf("%dms", r.Intn(1000)) }

// chainFlow is one Figure-1 flow under its Table-3 service assignment.
type chainFlow struct {
	name, kind string
	from, to   int // switch indices, 1-based, from < to
}

// The paper's Figure-1 layout under the Table-3 assignment: every
// inter-switch link carries 2 Guaranteed-Peak, 1 Guaranteed-Average,
// 3 Predicted-High and 4 Predicted-Low flows.
var chainFlows = []chainFlow{
	{"f401", "gpeak", 1, 5}, {"f201", "gpeak", 1, 3}, {"f203", "gpeak", 3, 5},
	{"f301", "gavg", 1, 4}, {"f109", "gavg", 4, 5},
	{"f402", "phigh", 1, 5}, {"f202", "phigh", 1, 3}, {"f204", "phigh", 3, 5},
	{"f101", "phigh", 1, 2}, {"f105", "phigh", 2, 3}, {"f107", "phigh", 3, 4}, {"f110", "phigh", 4, 5},
	{"f302", "plow", 1, 4}, {"f303", "plow", 2, 5}, {"f304", "plow", 2, 5},
	{"f102", "plow", 1, 2}, {"f103", "plow", 1, 2}, {"f104", "plow", 1, 2},
	{"f106", "plow", 2, 3}, {"f108", "plow", 3, 4}, {"f111", "plow", 4, 5}, {"f112", "plow", 4, 5},
}

func chainPath(from, to int) string {
	hops := make([]string, 0, to-from+1)
	for i := from; i <= to; i++ {
		hops = append(hops, fmt.Sprintf("S%d", i))
	}
	return strings.Join(hops, " -> ")
}

// genChain writes the paper's Table-3 world: the Figure-1 five-switch chain
// with 5 guaranteed and 17 predicted Markov flows plus two greedy TCP
// connections filling the links past 99 %. The seed moves the run seed and
// every source's start phase.
func genChain(seed int64) string {
	r := genRNG(seed, "chain_batch")
	var b strings.Builder
	fmt.Fprintf(&b, "# bench chain_batch, seed %d: Figure-1 chain under the Table-3 service mix.\n", seed)
	b.WriteString("net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], buffer 200)\n")
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %gs, percentiles [50%%, 99%%, 99.9%%])\n", seed, chainHorizon)
	b.WriteString("S1, S2, S3, S4, S5 :: Switch\nS1 <-> S2 <-> S3 <-> S4 <-> S5\n")
	for _, f := range chainFlows {
		path := chainPath(f.from, f.to)
		switch f.kind {
		case "gpeak":
			// Clock rate = peak rate. The paper's b(P) is one packet; the
			// flows declare two, because this WFQ (which reads backlog from
			// the real queue, not the GPS fluid) overshoots the one-packet
			// bound by up to 0.8 ms a few times per 1000 s — README, "What
			// the checks found".
			fmt.Fprintf(&b, "%s :: Guaranteed(rate 170kbps, bucket 2kbit, path %s)\n", f.name, path)
		case "gavg": // clock rate = average rate, the (A, 50) bucket
			fmt.Fprintf(&b, "%s :: Guaranteed(rate 85kbps, bucket 50kbit, path %s)\n", f.name, path)
		case "phigh":
			fmt.Fprintf(&b, "%s :: Predicted(rate 85kbps, bucket 50kbit, delay 1s, loss 1%%, class 0, path %s)\n", f.name, path)
		case "plow":
			fmt.Fprintf(&b, "%s :: Predicted(rate 85kbps, bucket 50kbit, delay 1s, loss 1%%, class 1, path %s)\n", f.name, path)
		}
		fmt.Fprintf(&b, "m%s :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start %s)\n", f.name, startMS(r))
		if f.kind == "gpeak" || f.kind == "gavg" {
			// Guaranteed flows are not policed by the network; the paper
			// still filters every source with (A, 50) at the host.
			fmt.Fprintf(&b, "tb%s :: TokenBucket(rate 85pps, depth 50)\nm%s -> tb%s -> %s\n", f.name, f.name, f.name, f.name)
		} else {
			fmt.Fprintf(&b, "m%s -> %s\n", f.name, f.name)
		}
	}
	b.WriteString("t1 :: TCP(path S1 -> S2 -> S3)\nt2 :: TCP(path S3 -> S4 -> S5)\n")
	return b.String()
}

// genMesh writes a ring of clusters: inside a cluster three switches joined
// by zero-delay links (so the partitioner must keep them on one shard), and
// 5 ms ring links between clusters (the lookahead that lets two shards run
// in parallel). Predicted Markov flows stay inside their cluster; one
// Poisson datagram flow per cluster crosses into the next. `shards` is the
// Net argument: 2 for the workload, 0 for its sequential twin — the text is
// otherwise identical.
func genMesh(seed int64, shards int) string {
	r := genRNG(seed, "mesh_sharded")
	var b strings.Builder
	fmt.Fprintf(&b, "# bench mesh_sharded, seed %d: %d clusters on a 5 ms ring.\n", seed, meshClusters)
	shardArg := ""
	if shards > 0 {
		shardArg = fmt.Sprintf(", shards %d", shards)
	}
	fmt.Fprintf(&b, "net :: Net(rate 4Mbps, classes 2, targets [32ms, 320ms], buffer 200%s)\n", shardArg)
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %gs)\n", seed, meshHorizon)
	for c := 1; c <= meshClusters; c++ {
		fmt.Fprintf(&b, "c%da, c%db, c%dc :: Switch\nc%da <-> c%db <-> c%dc\n", c, c, c, c, c, c)
	}
	for c := 1; c <= meshClusters; c++ {
		fmt.Fprintf(&b, "c%dc <-> c%da :: Link(delay 5ms)\n", c, c%meshClusters+1)
	}
	routes := []string{"a -> b", "b -> c", "a -> b -> c", "c -> b", "b -> a", "c -> b -> a"}
	for c := 1; c <= meshClusters; c++ {
		for i := 1; i <= meshFlowsPerCluster; i++ {
			hops := strings.Split(routes[r.Intn(len(routes))], " -> ")
			for k := range hops {
				hops[k] = fmt.Sprintf("c%d%s", c, hops[k])
			}
			fmt.Fprintf(&b, "p%d_%d :: Predicted(rate 85kbps, bucket 50kbit, delay 1s, loss 1%%, class %d, path %s)\n",
				c, i, r.Intn(2), strings.Join(hops, " -> "))
			fmt.Fprintf(&b, "m%d_%d :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start %s); m%d_%d -> p%d_%d\n",
				c, i, startMS(r), c, i, c, i)
		}
		n := c%meshClusters + 1
		fmt.Fprintf(&b, "d%d :: Datagram(path c%da -> c%db -> c%dc -> c%da -> c%db -> c%dc)\n", c, c, c, c, n, n, n)
		fmt.Fprintf(&b, "x%d :: Poisson(rate 600pps, size 1000bit, start %s); x%d -> d%d\n", c, startMS(r), c, c)
	}
	return b.String()
}

// churnChord is the skip of the chord every node of the churn mesh has
// besides its two ring links.
const churnChord = 8

// churnDestOffsets places the 24 destinations of an origin, hottest first,
// as ring offsets from it (never 0 or 32, the two origins).
var churnDestOffsets = [churnDests]int{9, 17, 3, 26, 40, 12, 55, 20, 6, 47, 29, 35, 14, 60, 23, 43, 50, 5, 38, 57, 11, 30, 45, 19}

// genChurn writes the control-plane world: a 64-node mesh with admission
// control, automatic rerouting and a small LRU route cache; two origins each
// launch ~400 short calls a second toward a Zipf-skewed set of destinations,
// and four link flaps next to the origins strand live calls and force
// reroutes. It returns the flap instants so the runner can put a span around
// exactly those steps.
//
// The mesh is a chordal ring (ring plus an i–i+8 chord at every node, degree
// 4), which looks the same from every node, and the seed only rotates and
// mirrors it: every seed's world has the same path-length distribution, so
// seeds differ in their arrival draws, not in how much work an arrival is.
// (The language's `Random` generator made packet-hops per run spread 17 %
// across seeds.)
func genChurn(seed int64) (string, []float64) {
	r := genRNG(seed, "churn_control")
	rot, dir := r.Intn(churnNodes), 1-2*r.Intn(2)
	node := func(offset int) string { // ring position `offset` from the first origin
		return fmt.Sprintf("n%d", ((rot+dir*offset)%churnNodes+churnNodes)%churnNodes+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# bench churn_control, seed %d: call churn on a %d-node chordal ring.\n", seed, churnNodes)
	b.WriteString("net :: Net(rate 100Mbps, propdelay 1ms, classes 2, targets [32ms, 320ms], admission on, routing auto)\n")
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %gs)\n", seed, churnHorizon)
	names := make([]string, churnNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	fmt.Fprintf(&b, "%s :: Switch\n", strings.Join(names, ", "))
	for i := range names {
		fmt.Fprintf(&b, "%s <-> %s; %s <-> %s\n", names[i], names[(i+1)%churnNodes], names[i], names[(i+churnChord)%churnNodes])
	}
	b.WriteString("cache :: RouteCache(scheme lru, size 16)\n")
	for k, origin := range []int{0, churnNodes / 2} {
		dests := make([]string, churnDests)
		for i, off := range churnDestOffsets {
			dests[i] = node(origin + off)
		}
		fmt.Fprintf(&b, "calls%d :: Churn(every 2.5ms, hold 2s, service predicted, rate 32kbps, bucket 10kbit,\n"+
			"    delay 700ms, pps 2pps, size 1000bit, src cbr, from %s, locality 0.8,\n    to [%s])\n",
			k+1, node(origin), strings.Join(dests, ", "))
	}
	// The four ring links next to the origins, in seeded order and timing.
	near := [][2]int{{0, 1}, {-1, 0}, {churnNodes / 2, churnNodes/2 + 1}, {churnNodes/2 - 1, churnNodes / 2}}
	r.Shuffle(len(near), func(i, j int) { near[i], near[j] = near[j], near[i] })
	var instants []float64
	for i, lk := range near {
		failAt := 8 + 10*float64(i) + float64(r.Intn(2000))/1000
		fmt.Fprintf(&b, "at %gs { fail %s <-> %s }\nat %gs { restore %s <-> %s }\n",
			failAt, node(lk[0]), node(lk[1]), failAt+3, node(lk[0]), node(lk[1]))
		instants = append(instants, failAt, failAt+3)
	}
	return b.String(), instants
}

// genWAN writes session k of the served workload — a WAN dumbbell with a few
// conference flows and background datagrams — and the `at` blocks the client
// injects over POST /events. base+events is the batch twin's text.
func genWAN(seed int64, k int) (base, events string) {
	r := genRNG(seed, fmt.Sprintf("serve_live:%d", k))
	var b strings.Builder
	fmt.Fprintf(&b, "# bench serve_live, seed %d, session %d: WAN dumbbell.\n", seed, k)
	b.WriteString("net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms])\n")
	fmt.Fprintf(&b, "run :: Run(seed %d, horizon %gs, trace 5s)\n", seed+int64(k), wanHorizon)
	b.WriteString("wan :: Dumbbell(left 3, right 3, access 10Mbps, bottleneck 1Mbps, delay 5ms)\n")
	for i := 1; i <= 2; i++ {
		fmt.Fprintf(&b, "conf%d :: Predicted(rate 85kbps, bucket 50kbit, delay 500ms, loss 1%%, path wan.l%d -> wan.a -> wan.b -> wan.r%d)\n", i, i, i)
		fmt.Fprintf(&b, "cam%d :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit, start %s); cam%d -> conf%d\n", i, startMS(r), i, i)
	}
	b.WriteString("bulk :: Datagram(path wan.l1 -> wan.a -> wan.b -> wan.r2)\n")
	fmt.Fprintf(&b, "hose :: Poisson(rate 40pps, size 1000bit, start %s); hose -> bulk\n", startMS(r))
	failAt := 100 + r.Intn(300)
	events = fmt.Sprintf("at %ds { fail wan.a <-> wan.b }\nat %ds { restore wan.a <-> wan.b }\n", failAt, failAt+20+r.Intn(40))
	return b.String(), events
}
