package ispn_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding experiment end to end on a shortened horizon (the paper
// simulates 600 s; benchmarks default to 60 s so `go test -bench=.`
// completes in minutes) and reports domain metrics alongside wall-clock
// time. Regenerate the full-length numbers with `go run ./cmd/ispnsim all`.

import (
	"fmt"
	"runtime"
	"testing"

	"ispn"
	"ispn/internal/experiments"
	"ispn/internal/routing"
)

const benchSimSeconds = 60

func benchCfg(i int) experiments.RunConfig {
	return experiments.RunConfig{Duration: benchSimSeconds, Seed: int64(1992 + i)}
}

// BenchmarkTable1 regenerates paper Table 1: WFQ vs FIFO mean and
// 99.9th-percentile delay on one 83.5%-utilized link.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(benchCfg(i))
		if i == b.N-1 {
			b.ReportMetric(rows[0].AllFlows.P999, "WFQ-p999-ms")
			b.ReportMetric(rows[1].AllFlows.P999, "FIFO-p999-ms")
			b.ReportMetric(rows[1].AllFlows.Mean, "FIFO-mean-ms")
		}
	}
}

// BenchmarkFigure1 regenerates the Figure-1 configuration: it validates the
// 22-flow layout and pushes the Table-2 workload through the chain,
// measuring simulator throughput.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	if err := experiments.ValidateFigure1(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		fifo := experiments.Table2(benchCfg(i))[1]
		if fifo.PerPath[3].N == 0 {
			b.Fatal("no packets crossed the chain")
		}
	}
}

// BenchmarkTable2 regenerates paper Table 2: WFQ vs FIFO vs FIFO+ delay
// versus path length on the Figure-1 chain.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchCfg(i))
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.PerPath[3].P999, string(r.Scheduler)+"-len4-p999-ms")
			}
		}
	}
}

// BenchmarkTable3 regenerates paper Table 3: the unified scheduler carrying
// guaranteed, predicted and TCP datagram traffic at >99% utilization.
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(benchCfg(i))
		if i == b.N-1 {
			b.ReportMetric(res.ByKind[experiments.GuaranteedPeak].P999, "GPeak-p999-ms")
			b.ReportMetric(res.ByKind[experiments.PredictedHigh].P999, "PHigh-p999-ms")
			b.ReportMetric(res.ByKind[experiments.PredictedLow].P999, "PLow-p999-ms")
			b.ReportMetric(100*res.LinkUtil[0], "L1-util-%")
			b.ReportMetric(100*res.DatagramDropRate, "dgram-drop-%")
		}
	}
}

// BenchmarkAblationIsolation regenerates ablation A (Section 5): who pays
// for a burst under isolation vs sharing.
func BenchmarkAblationIsolation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationIsolation(benchCfg(i))
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Burster.P999, string(r.Scheduler)+"-burster-p999-ms")
			}
		}
	}
}

// BenchmarkAblationHops regenerates ablation B (Section 6): jitter growth
// with hop count under FIFO, FIFO+ and round robin.
func BenchmarkAblationHops(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationHops(benchCfg(i), 4)
		if i == b.N-1 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.P999[experiments.DiscFIFO], "FIFO-4hop-p999-ms")
			b.ReportMetric(last.P999[experiments.DiscFIFOPlus], "FIFO+-4hop-p999-ms")
		}
	}
}

// BenchmarkAblationAdmission regenerates ablation C (Section 9):
// measurement-based vs worst-case admission.
func BenchmarkAblationAdmission(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationAdmission(experiments.RunConfig{Duration: 120, Seed: int64(1 + i)}, 20)
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(100*r.RealTimeUtil, r.Policy+"-util-%")
			}
		}
	}
}

// BenchmarkAblationPlayback regenerates ablation D (Sections 2-3): adaptive
// vs rigid play-back points.
func BenchmarkAblationPlayback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPlayback(benchCfg(i))
		if i == b.N-1 {
			b.ReportMetric(r.APrioriBoundMS, "apriori-ms")
			b.ReportMetric(r.AdaptivePointMS, "adaptive-point-ms")
		}
	}
}

// BenchmarkAblationDiscard regenerates ablation E (Section 10): in-network
// late discard driven by the jitter-offset header field.
func BenchmarkAblationDiscard(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationDiscard(benchCfg(i), []float64{0, 10})
		if i == b.N-1 {
			b.ReportMetric(float64(rows[1].Discarded), "discarded-pkts")
		}
	}
}

// BenchmarkMixedDeployment regenerates the partial-rollout study: the
// Table-2 workload with 0 to 4 of the chain's links upgraded from FIFO to
// FIFO+ — the heterogeneous per-link pipeline path end to end.
func BenchmarkMixedDeployment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.MixedDeployment(experiments.RunConfig{Duration: 30, Seed: int64(1992 + i)})
		if i == b.N-1 {
			b.ReportMetric(rows[0].PerPath[3].P999, "FIFO-len4-p999-ms")
			b.ReportMetric(rows[2].PerPath[3].P999, "half-len4-p999-ms")
			b.ReportMetric(rows[4].PerPath[3].P999, "FIFO+-len4-p999-ms")
		}
	}
}

// BenchmarkFailover regenerates the failover study: a mid-run link failure
// on the Table-2 chain, no-reroute baseline vs the failure-aware routing
// subsystem (path recompute, admission on the added hops, reservation
// migration) end to end.
func BenchmarkFailover(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := experiments.Failover(experiments.RunConfig{Duration: 30, Seed: int64(1992 + i)})
		if i == b.N-1 {
			b.ReportMetric(float64(rows[0].Flows[0].Delivered), "baseline-circuit-pkts")
			b.ReportMetric(float64(rows[1].Flows[0].Delivered), "reroute-circuit-pkts")
			b.ReportMetric(float64(rows[1].Reroutes), "reroutes")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed on the Table-3
// configuration: simulated packet-hops per wall-clock second dominate how
// long every other experiment takes.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Table3(experiments.RunConfig{Duration: 30, Seed: int64(i)})
	}
}

// buildShardMesh builds the generated benchmark mesh: four zero-delay
// three-switch chains ("clusters") joined in a ring by 5 ms links, with
// bidirectional local CBR traffic inside every cluster and a CBR flow over
// every ring link. Zero-delay links fuse each cluster into one partition
// component, so the partitioner spreads whole clusters across shards and
// the conservative lookahead is the 5 ms ring delay.
func buildShardMesh(shards int, seed int64) (*ispn.Network, []*ispn.Flow) {
	const clusters = 4
	sw := func(c, j int) string { return fmt.Sprintf("c%d.%d", c, j) }
	net := ispn.New(ispn.Config{Seed: seed, LinkRate: 10e6})
	for c := 0; c < clusters; c++ {
		for j := 0; j < 3; j++ {
			net.AddSwitch(sw(c, j))
		}
		for j := 0; j < 2; j++ {
			net.Connect(sw(c, j), sw(c, j+1))
			net.Connect(sw(c, j+1), sw(c, j))
		}
	}
	for c := 0; c < clusters; c++ {
		next := (c + 1) % clusters
		net.ConnectWith(sw(c, 2), sw(next, 0), 10e6, 0.005, nil)
		net.ConnectWith(sw(next, 0), sw(c, 2), 10e6, 0.005, nil)
	}
	if shards > 0 {
		if err := net.SetShards(ispn.PartitionSpec{Shards: shards}); err != nil {
			panic(err)
		}
	}
	var flows []*ispn.Flow
	id := uint32(1)
	addFlow := func(rate float64, path ...string) {
		f, err := net.AddDatagramFlow(id, path)
		if err != nil {
			panic(err)
		}
		src := ispn.NewCBRSource(ispn.CBRConfig{
			SizeBits: 1000, Rate: rate,
			RNG: ispn.DeriveRNG(seed, fmt.Sprintf("cbr-%d", id)),
		})
		ispn.StartSource(net, src, f)
		flows = append(flows, f)
		id++
	}
	for c := 0; c < clusters; c++ {
		addFlow(4000, sw(c, 0), sw(c, 1), sw(c, 2))
		addFlow(4000, sw(c, 2), sw(c, 1), sw(c, 0))
		addFlow(500, sw(c, 2), sw((c+1)%clusters, 0))
	}
	return net, flows
}

// BenchmarkShardedThroughput runs the windowed multi-heap engine on the
// generated cluster mesh at 1, 2 and 4 shards — same workload, same
// (bit-identical) results, one event heap per shard, all on one goroutine.
// The 1-shard case runs the same coordinator, so the ratio is the cost of
// splitting the heap and narrowing the windows, not a speed-up.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			net, flows := buildShardMesh(shards, 1992)
			net.Run(1) // warm-up: pools and rings sized
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Run(2)
			}
			b.StopTimer()
			var delivered int64
			for _, f := range flows {
				delivered += f.Delivered()
			}
			if delivered == 0 {
				b.Fatal("mesh delivered nothing")
			}
			b.ReportMetric(float64(delivered)/float64(b.N), "pkts/op")
		})
	}
}

// BenchmarkMillionFlows holds one million admitted predicted flows in a
// single simulation and measures what each one costs: members are spread
// over ~2000 (class, path) aggregates on a 32-leaf star, so the per-flow
// state is one inline policer slot plus a 16-byte handle — the carrier
// flows, schedulers and interned paths amortize to noise. The benchmark
// reports resident bytes/flow (it fails itself above 64; `make bench-smoke`
// runs it in CI) and times the admit+release cycle at full occupancy, which
// exercises the aggregate's free-slot reuse rather than ever-growing member
// arrays and must not allocate.
func BenchmarkMillionFlows(b *testing.B) {
	const (
		leaves  = 32
		members = 1_000_000
	)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	net := ispn.New(ispn.Config{Seed: 1992, LinkRate: 10e9})
	net.AddSwitch("hub")
	names := make([]string, leaves)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
		net.AddSwitch(names[i])
		net.Connect(names[i], "hub")
		net.Connect("hub", names[i])
	}
	paths := make([][]string, 0, leaves*(leaves-1))
	for i := 0; i < leaves; i++ {
		for j := 0; j < leaves; j++ {
			if i != j {
				paths = append(paths, []string{names[i], "hub", names[j]})
			}
		}
	}
	spec := ispn.PredictedSpec{TokenRate: 100, BucketBits: 1000, Delay: 0.5}
	handles := make([]ispn.Member, 0, members)
	for i := 0; i < members; i++ {
		m, err := net.RequestPredictedMember(paths[i%len(paths)], uint8(i%2), spec)
		if err != nil {
			b.Fatalf("member %d refused: %v", i, err)
		}
		handles = append(handles, m)
	}
	if carriers := len(net.Flows()); carriers >= members/100 {
		b.Fatalf("aggregation failed: %d carrier flows for %d members", carriers, members)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perFlow := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(handles))

	// One untimed cycle per aggregate gives each its free list; from then on
	// a cycle at full occupancy must allocate nothing.
	cycle := func(i int) {
		m, err := net.RequestPredictedMember(paths[i%len(paths)], uint8(i%2), spec)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
	for i := 0; i < 2*len(paths); i++ {
		cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
	b.StopTimer()
	b.ReportMetric(perFlow, "bytes/flow")
	b.ReportMetric(float64(len(handles)), "flows")
	if perFlow > 64 {
		b.Fatalf("resident state is %.1f bytes/flow, budget is 64", perFlow)
	}
	// The gate counts cycles of its own: it must hold at -benchtime 1x, where
	// one stray runtime allocation in the timed loop would read as 1 alloc/op.
	next := b.N
	if allocs := testing.AllocsPerRun(1000, func() { cycle(next); next++ }); allocs != 0 {
		b.Fatalf("admit+release at full occupancy allocates %v times per cycle, want 0", allocs)
	}
	runtime.KeepAlive(handles)
}

// BenchmarkCallChurn times call set-up and tear-down, the control-plane cycle
// of the churn workloads: on a 64-node ring with a chord of 8 at every node,
// admission control on and a 16-entry LRU route cache, each operation looks
// the route up, requests predicted service under a flow id that only ever
// rises, and releases it. bytes/call is what one cycle allocates; it must not
// depend on how many ids have been issued (internal/core's
// TestCallSetupAllocation gates it).
func BenchmarkCallChurn(b *testing.B) {
	const nodes, chord = 64, 8
	name := func(i int) string { return fmt.Sprintf("n%d", i%nodes+1) }
	net := ispn.New(ispn.Config{Seed: 1992, LinkRate: 100e6, PropDelay: 0.001, AdmissionControl: true})
	for i := 0; i < nodes; i++ {
		net.AddSwitch(name(i))
	}
	for i := 0; i < nodes; i++ {
		net.ConnectDuplex(name(i), name(i+1))
		net.ConnectDuplex(name(i), name(i+chord))
	}
	if err := net.SetRouting(ispn.RoutingConfig{Auto: true}); err != nil {
		b.Fatal(err)
	}
	cache, err := routing.NewCache(routing.CacheLRU, 16, nil)
	if err != nil {
		b.Fatal(err)
	}
	net.SetRouteCache(cache)
	spec := ispn.PredictedSpec{TokenRate: 32e3, BucketBits: 10e3, Delay: 0.7}
	id := uint32(0)
	call := func() {
		id++
		path := net.LookupRoute(name(0), name(3+int(id)%16*3))
		if _, err := net.RequestPredictedClass(id, path, uint8(id%2), spec); err != nil {
			b.Fatalf("call %d refused: %v", id, err)
		}
		net.Release(id)
	}
	for i := 0; i < 1000; i++ {
		call()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "bytes/call")
}

// BenchmarkCacheShowdown times the DEC-TR-592 route-cache comparison (all
// four eviction schemes on the identical hot-spot churn) and publishes the
// per-scheme hit rates to the CI artifact; the run fails if the expected
// ordering — LRU over FIFO over random — ever inverts.
func BenchmarkCacheShowdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells := experiments.CacheShowdown(experiments.RunConfig{Duration: 120, Seed: 9})
		if i == b.N-1 {
			rate := map[string]float64{}
			for _, c := range cells {
				rate[c.Scheme] = c.HitRate
				b.ReportMetric(100*c.HitRate, c.Scheme+"-hit-%")
			}
			lru, fifo, rnd := rate[routing.CacheLRU], rate[routing.CacheFIFO], rate[routing.CacheRandom]
			if lru < fifo || fifo < rnd {
				b.Fatalf("eviction ordering inverted: lru %.3f, fifo %.3f, random %.3f", lru, fifo, rnd)
			}
		}
	}
}

// facadeSmallNetwork builds a small mixed-service network through the public
// API and warms it up, so pools, rings and the event free list are sized.
func facadeSmallNetwork(tb testing.TB) (*ispn.Network, *ispn.Flow) {
	net := ispn.New(ispn.Config{Seed: 1992})
	net.AddSwitch("A")
	net.AddSwitch("B")
	net.Connect("A", "B")
	f, err := net.RequestPredicted(1, []string{"A", "B"}, ispn.PredictedSpec{
		TokenRate: 85_000, BucketBits: 50_000, Delay: 0.1, Loss: 0.01,
	})
	if err != nil {
		tb.Fatal(err)
	}
	src := ispn.NewMarkovSource(ispn.MarkovConfig{
		SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5,
		RNG: ispn.DeriveRNG(1992, "bench"),
	})
	ispn.StartSource(net, src, f)
	net.Run(5)
	return net, f
}

// BenchmarkFacadeSmallNetwork measures steady-state cost of the public API:
// the network is built once, then each iteration advances the same running
// simulation by 5 seconds.
func BenchmarkFacadeSmallNetwork(b *testing.B) {
	net, f := facadeSmallNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Run(5)
	}
	if f.Delivered() == 0 {
		b.Fatal("no packets delivered")
	}
}

// TestFacadeSteadyStateAllocs gates the zero-allocation steady state: with
// the packet pool, event free list and prebound transmit events, advancing a
// warmed-up simulation allocates nothing. 20 runs amortize the only
// allocations left — the occasional growth of the delay recorder's sample
// storage — out of the integer allocs/op, as the benchmark's report does.
func TestFacadeSteadyStateAllocs(t *testing.T) {
	net, f := facadeSmallNetwork(t)
	before := f.Delivered()
	if allocs := testing.AllocsPerRun(20, func() { net.Run(5) }); allocs != 0 {
		t.Errorf("steady-state net.Run(5) allocates %v times per run, want 0", allocs)
	}
	if f.Delivered() == before {
		t.Fatal("no packets delivered")
	}
}
