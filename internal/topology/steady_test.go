package topology

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
)

// burster injects burst packets of one flow every period seconds, drawing
// them from the network's pool. Its event callback is a package function
// with the burster as argument, so a firing allocates nothing of its own.
type burster struct {
	nd     *Node
	r      *Route
	flow   uint32
	class  packet.Class
	prio   uint8
	burst  int
	period float64
}

func fireBurster(arg any) {
	b := arg.(*burster)
	for range b.burst {
		p := b.nd.Pool().Get()
		p.FlowID, p.Class, p.Priority, p.Size = b.flow, b.class, b.prio, 1000
		p.CreatedAt = b.nd.Engine().Now()
		p.Route = b.r
		b.nd.Inject(p)
	}
	b.nd.Engine().ScheduleCall(b.period, fireBurster, b)
}

// countSink counts deliveries; the network releases each packet after it.
type countSink struct{ n int64 }

func (s *countSink) Deliver(*packet.Packet) { s.n++ }

// TestUnifiedPortSteadyStateAllocs runs one port of each reserving kind —
// a guaranteed flow, predicted traffic in both classes and datagram traffic,
// about 0.85 of a 100 kbit/s link with queues building at every burst — for
// 10⁴ simulated seconds after a 100 s warm-up, and counts every object the
// whole run allocates: a port that has seen its largest backlog must forward
// for the rest of the run without allocating. Every FIFO+ class of the
// unified port rolls its delay meter's 1 s window 10⁴ times here, so a meter
// that reallocated its retained windows every 30 rolls would show as
// hundreds of objects. (An average over short runs, testing.AllocsPerRun,
// divides in integers and reads that as 0.)
//
// The count reads the whole process's allocations, so a stray object of the
// runtime or the testing package lands in it now and then. The run is
// repeated on a fresh network, up to three times, and passes if one count
// is 0: the simulation is deterministic, so an object the port allocates in
// the counted window is counted by every attempt.
func TestUnifiedPortSteadyStateAllocs(t *testing.T) {
	for _, kind := range []string{sched.KindUnified, sched.KindWFQ, sched.KindVirtualClock} {
		t.Run(kind, func(t *testing.T) {
			const attempts = 3
			var objs, bytes uint64
			var delivered int64
			for range attempts {
				if objs, bytes, delivered = steadyStateRun(t, kind); objs == 0 {
					return
				}
			}
			t.Errorf("%d packet-hops after the warm-up allocated %d objects (%d B) in each of %d runs, want 0",
				delivered, objs, bytes, attempts)
		})
	}
}

// steadyStateRun builds TestUnifiedPortSteadyStateAllocs's port of the given
// kind, runs it through the warm-up and then the counted window, and returns
// the objects and bytes the window allocated and the packets it delivered.
func steadyStateRun(t *testing.T, kind string) (objs, bytes uint64, delivered int64) {
	t.Helper()
	const rate, warmup, horizon = 1e5, 100.0, 10_100.0
	eng := sim.New()
	n := NewNetwork(eng)
	n.AddNode("A")
	n.AddNode("B")
	pipe, err := sched.NewPipeline(sched.Profile{Kind: kind}, rate)
	if err != nil {
		t.Fatal(err)
	}
	pipe.AddGuaranteed(1, 25e3)
	n.AddLink("A", "B", pipe, rate, 0.001)
	sink := &countSink{}
	sources := []*burster{
		{flow: 1, class: packet.Guaranteed, burst: 2, period: 0.1},
		{flow: 2, class: packet.Predicted, prio: 0, burst: 6, period: 0.2},
		{flow: 3, class: packet.Predicted, prio: 1, burst: 13, period: 0.65},
		{flow: 4, class: packet.Datagram, burst: 20, period: 1.3},
	}
	for i, s := range sources {
		s.nd, s.r = n.Node("A"), n.InstallRoute(s.flow, []string{"A", "B"})
		s.r.SetReceiver(n.Node("B"), sink)
		eng.AtCallKeyed(0.01*float64(i), sim.KeyData, fireBurster, s)
	}
	eng.RunUntil(warmup)
	warm := sink.n
	// A garbage collection inside the count allocates a stray runtime
	// object now and then; with collection off for the count, every object
	// counted is the run's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.RunUntil(horizon)
	runtime.ReadMemStats(&after)
	delivered = sink.n - warm
	if want := int64(0.8 * rate / 1000 * (horizon - warmup)); delivered < want {
		t.Fatalf("delivered %d packets after the warm-up, want at least %d", delivered, want)
	}
	for class := 0; kind == sched.KindUnified && class < 2; class++ {
		if pipe.ClassDelayEstimate(class, eng.Now()) <= 0 {
			t.Fatalf("predicted class %d measured no queueing delay", class)
		}
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, delivered
}
