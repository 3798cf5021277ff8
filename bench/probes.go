package main

import (
	"fmt"
	"math/rand"
	"time"

	"ispn/internal/admission"
	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/queue"
	"ispn/internal/routing"
	"ispn/internal/scenario"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/stats"
	"ispn/internal/tokenbucket"
	"ispn/internal/topology"
)

// A probe is a timed loop over one layer's public functions. Each runs five
// rounds of at least probeMinOps operations and probeMinDur wall — at least
// 10⁵ operations and 200 ms per probe — and reports the median ns/op of the
// five. Calibration rounds that end too soon are discarded.
const (
	probeRounds = 5
	probeMinOps = 20_000
	probeMinDur = 40 * time.Millisecond
)

// measure times op. setup builds fresh state and returns op, which performs
// n operations; it runs once per round so rounds never share warmed state
// they would not share in a real run.
func measure(setup func() func(n int)) float64 {
	n := probeMinOps
	var perOp []float64
	for len(perOp) < probeRounds {
		op := setup()
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		if d < probeMinDur {
			grow := 1.2 * float64(probeMinDur) / float64(d+1)
			if grow < 2 {
				grow = 2
			}
			n = int(float64(n) * grow)
			continue
		}
		perOp = append(perOp, float64(d.Nanoseconds())/float64(n))
	}
	return median(perOp)
}

// runProbes times every layer at the occupancy the traced repeat observed.
func runProbes(seed int64, sh probeShape) map[string]float64 {
	m := map[string]float64{}
	depth := max(sh.QueueDepth, 1)
	r := rand.New(rand.NewSource(seed))
	jitter := make([]float64, 1024)
	for i := range jitter {
		jitter[i] = r.ExpFloat64()
	}

	// sim: the hold model — fire one event, schedule one — at the observed
	// number of pending events.
	m["sim.hold_ns"] = measure(func() func(int) {
		e := sim.New()
		count, limit := 0, 0
		var fire func(any)
		fire = func(any) {
			count++
			if count >= limit {
				e.Stop()
				return
			}
			e.ScheduleCall(jitter[count%len(jitter)], fire, nil)
		}
		for i := 0; i < max(sh.Pending, 1); i++ {
			e.ScheduleCall(jitter[i%len(jitter)], fire, nil)
		}
		return func(n int) {
			count, limit = 0, n
			e.Run()
		}
	})
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("churn:calls1:%d", i)
	}
	m["sim.derive_rng_ns"] = measure(func() func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sim.DeriveRNG(seed, names[i%len(names)])
			}
		}
	})

	// sched: enqueue + dequeue through each pipeline kind, queue held at
	// the observed depth, Table-3 traffic mix.
	for _, kind := range schedKinds {
		m["sched.enqdeq_ns."+kind] = measure(func() func(int) { return schedCycle(kind, depth, r) })
	}

	// topology: one packet across one port, transmit-complete event and
	// delivery included.
	for _, kind := range []string{sched.KindUnified, sched.KindFIFO} {
		m["topology.port_hop_ns."+kind] = measure(func() func(int) {
			eng := sim.New()
			net := topology.NewNetwork(eng)
			net.AddNode("A")
			net.AddNode("B")
			pl, err := sched.NewPipeline(sched.Profile{Kind: kind}, 1e9)
			if err != nil {
				panic(err) // both kinds are built in
			}
			net.AddLink("A", "B", pl, 1e9, 0)
			net.InstallRoute(1, []string{"A", "B"})
			net.Node("B").SetSink(1, func(p *packet.Packet) { packet.Release(p) })
			in := net.Node("A")
			return func(n int) {
				for i := 0; i < n; i++ {
					p := net.Pool().Get()
					p.FlowID, p.Size, p.Class = 1, 1000, packet.Predicted
					in.Inject(p)
					eng.Run()
				}
			}
		})
	}

	m["packet.pool_getput_ns"] = measure(func() func(int) {
		pl := packet.NewPool()
		return func(n int) {
			for i := 0; i < n; i++ {
				pl.Put(pl.Get())
			}
		}
	})
	m["queue.ring_pushpop_ns"] = measure(func() func(int) {
		q := queue.NewRing(0)
		p := &packet.Packet{}
		for i := 0; i < depth; i++ {
			q.Push(p)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				q.Push(p)
				q.Pop()
			}
		}
	})
	m["queue.deadline_pushpop_ns"] = measure(func() func(int) {
		q := queue.NewDeadlineQueue()
		p := &packet.Packet{}
		for i := 0; i < depth; i++ {
			q.Push(p, jitter[i%len(jitter)])
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				q.Push(p, float64(i)*1e-3+jitter[i%len(jitter)])
				q.Pop()
			}
		}
	})

	// source: packets generated per source, the engine event that paces
	// each one included.
	sourceProbe := func(build func(rng *sim.RNG) source.Source) float64 {
		return measure(func() func(int) {
			eng := sim.New()
			src := build(sim.NewRNG(seed))
			source.AttachPool(src, packet.NewPool())
			count, limit := 0, 0
			src.Start(eng, func(p *packet.Packet) {
				packet.Release(p)
				if count++; count >= limit {
					eng.Stop()
				}
			})
			return func(n int) {
				count, limit = 0, n
				eng.Run()
			}
		})
	}
	m["source.markov_ns_per_pkt"] = sourceProbe(func(rng *sim.RNG) source.Source {
		return source.NewMarkov(source.MarkovConfig{SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5, RNG: rng})
	})
	m["source.poisson_ns_per_pkt"] = sourceProbe(func(rng *sim.RNG) source.Source {
		return source.NewPoisson(source.PoissonConfig{SizeBits: 1000, Rate: 85, RNG: rng})
	})

	m["stats.recorder_add_ns"] = measure(func() func(int) {
		return func(n int) {
			var rec *stats.Recorder
			for i := 0; i < n; i++ {
				if i%1_000_000 == 0 {
					rec = stats.NewRecorder() // bound the probe's own memory
				}
				rec.Add(jitter[i%len(jitter)])
			}
		}
	})
	// The first Percentile after a run sorts every sample; one operation is
	// a million samples, so this probe times single calls.
	var sorts []float64
	for round := 0; round < probeRounds; round++ {
		rec := stats.NewRecorderSize(1_000_000)
		for i := 0; i < 1_000_000; i++ {
			rec.Add(r.Float64())
		}
		t0 := time.Now()
		rec.Percentile(0.99)
		sorts = append(sorts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m["stats.percentile_ms_per_msample"] = median(sorts)

	m["tokenbucket.take_ns"] = measure(func() func(int) {
		b := tokenbucket.New(1e6, 5e4)
		return func(n int) {
			for i := 0; i < n; i++ {
				b.Take(float64(i)*1e-3, 1000)
			}
		}
	})

	// admission, core: one request and its release against a link that
	// already carries the observed number of live flows (an upper estimate
	// of any one port's warm-up ledger).
	live := max(sh.LiveFlows, 1)
	targets := []float64{0.032, 0.32}
	m["admission.admit_release_ns"] = measure(func() func(int) {
		c := admission.New(admission.Config{LinkRate: 1e12, ClassTargets: targets})
		for o := 1; o <= live; o++ {
			if err := c.AdmitPredictedOwned(0, 32e3, 1e4, 0, uint64(o)); err != nil {
				panic(err) // a terabit link admits them all
			}
		}
		owner := uint64(live + 1)
		return func(n int) {
			for i := 0; i < n; i++ {
				_ = c.AdmitPredictedOwned(0, 32e3, 1e4, 0, owner) // as above
				c.ReleaseOwner(0, owner)
			}
		}
	})
	m["core.request_release_ns"] = measure(func() func(int) {
		net := core.New(core.Config{LinkRate: 1e12, AdmissionControl: true})
		for _, s := range []string{"A", "B", "C"} {
			net.AddSwitch(s)
		}
		net.Connect("A", "B")
		net.Connect("B", "C")
		path := []string{"A", "B", "C"}
		spec := core.PredictedSpec{TokenRate: 32e3, BucketBits: 1e4, Delay: 0.7, Loss: 0.01}
		for id := 1; id <= live; id++ {
			if _, err := net.RequestPredicted(uint32(id), path, spec); err != nil {
				panic(err) // a terabit link admits them all
			}
		}
		id := uint32(live + 1)
		return func(n int) {
			for i := 0; i < n; i++ {
				_, _ = net.RequestPredicted(id, path, spec) // as above
				net.Release(id)
			}
		}
	})

	// routing: the churn workload's 64-node graph and its 16-entry LRU.
	churnWorld := func() *scenario.Sim {
		text, _ := genChurn(seed)
		return mustCompile(text)
	}
	dests := make([]string, churnNodes-1)
	for i := range dests {
		dests[i] = fmt.Sprintf("n%d", i+2)
	}
	m["routing.shortest_path_us"] = measure(func() func(int) {
		g := routing.NewGraph(churnWorld().Net.Topology(), routing.CostHops)
		return func(n int) {
			for i := 0; i < n; i++ {
				g.ShortestPath("n1", dests[i%len(dests)], 0, nil)
			}
		}
	}) / 1e3
	m["routing.cache_hit_ns"] = measure(func() func(int) {
		net := churnWorld().Net
		return func(n int) {
			for i := 0; i < n; i++ {
				net.LookupRoute("n1", dests[0])
			}
		}
	})
	// Cycling through more destinations than the LRU holds evicts each
	// entry just before it is wanted again: every lookup misses.
	m["routing.lookup_route_miss_us"] = measure(func() func(int) {
		net := churnWorld().Net
		return func(n int) {
			for i := 0; i < n; i++ {
				net.LookupRoute("n1", dests[i%churnDests])
			}
		}
	}) / 1e3

	// scenario: compiling `at` blocks against a live session, two per call.
	blocks := []byte("at 300s { fail wan.a <-> wan.b }\nat 310s { restore wan.a <-> wan.b }\n")
	m["scenario.inject_us_per_block"] = measure(func() func(int) {
		base, _ := genWAN(seed, 1)
		s := mustCompile(base)
		s.Start()
		return func(n int) {
			for i := 0; i < n; i++ {
				if _, err := s.InjectEvents("inject.ispn", blocks); err != nil {
					panic(err)
				}
			}
		}
	}) / 2 / 1e3
	return m
}

// mustCompile builds a generated text into a world for a probe. The
// generators' tests hold that every text parses and compiles.
func mustCompile(text string) *scenario.Sim {
	f, err := scenario.Parse("probe.ispn", []byte(text))
	if err != nil {
		panic(err)
	}
	s, err := scenario.Compile(f, scenario.Options{})
	if err != nil {
		panic(err)
	}
	return s
}

// schedCycle returns the enqueue+dequeue loop of one pipeline kind. Packets
// come from a free list the dequeued packet returns to, so no packet is ever
// queued twice whatever order the discipline serves them in.
func schedCycle(kind string, depth int, r *rand.Rand) func(n int) {
	pl, err := sched.NewPipeline(sched.Profile{Kind: kind}, 1e6)
	if err != nil {
		panic(err) // schedKinds lists built-in kinds only
	}
	if pl.SupportsGuaranteed() {
		// A Table-3 link: two peak-rate and one average-rate circuit.
		pl.AddGuaranteed(100, 1.7e5)
		pl.AddGuaranteed(101, 1.7e5)
		pl.AddGuaranteed(102, 0.85e5)
	}
	free := make([]*packet.Packet, depth+1)
	for i := range free {
		p := &packet.Packet{Size: 1000, JitterOffset: (r.Float64() - 0.5) * 0.01}
		switch k := r.Intn(10); {
		case k < 3:
			p.FlowID, p.Class = uint32(100+k), packet.Guaranteed
		case k < 9:
			p.FlowID, p.Class, p.Priority = uint32(k), packet.Predicted, uint8(k%2)
		default:
			p.FlowID, p.Class = 9, packet.Datagram
		}
		free[i] = p
	}
	now := 0.0
	push := func() {
		p := free[len(free)-1]
		free = free[:len(free)-1]
		now += 1e-3
		p.ArrivedAt = now
		pl.Enqueue(p, now)
	}
	for i := 0; i < depth; i++ {
		push()
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			push()
			free = append(free, pl.Dequeue(now))
		}
	}
}
