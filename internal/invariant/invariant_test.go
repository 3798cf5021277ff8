package invariant

import (
	"strings"
	"testing"

	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
)

// loadedNet builds S1 -> S2 with a guaranteed CBR flow of gpps 1000-bit
// packets per second on a 200 kbit/s clock rate, and datagram cross-traffic,
// so delivery-time checks see real queueing.
func loadedNet(t *testing.T, gpps float64) (*core.Network, []source.Source) {
	t.Helper()
	n := core.New(core.Config{Seed: 7})
	n.AddSwitch("S1")
	n.AddSwitch("S2")
	n.Connect("S1", "S2")
	path := []string{"S1", "S2"}
	g, err := n.RequestGuaranteed(1, path, core.GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	gsrc := source.NewCBR(source.CBRConfig{
		FlowID: 1, SizeBits: 1000, Rate: gpps, RNG: sim.DeriveRNG(n.Config().Seed, "g"),
	})
	d, err := n.AddDatagramFlow(2, path)
	if err != nil {
		t.Fatal(err)
	}
	dsrc := source.NewPoisson(source.PoissonConfig{
		FlowID: 2, Class: packet.Datagram, SizeBits: 1000, Rate: 400, RNG: sim.DeriveRNG(n.Config().Seed, "d"),
	})
	gsrc.Start(n.Engine(), func(p *packet.Packet) { g.Inject(p) })
	dsrc.Start(n.Engine(), func(p *packet.Packet) { d.Inject(p) })
	return n, []source.Source{gsrc, dsrc}
}

// drain stops the sources and runs until the oracle reports the network
// settled, mirroring the scenario runner's quiesce step.
func drain(t *testing.T, n *core.Network, o *Oracle, srcs []source.Source) {
	t.Helper()
	for _, s := range srcs {
		source.StopSource(s)
	}
	for i := 0; i < 40 && !o.Settled(); i++ {
		n.Run(0.5)
	}
}

func TestCleanRunNoViolations(t *testing.T) {
	n, srcs := loadedNet(t, 160) // conforming: 160 kbit/s under the clock
	o := Attach(n)
	o.Arm(10)
	n.Run(10)
	drain(t, n, o, srcs)
	o.CheckLeaks(n.Engine().Now())
	tot := o.Totals()
	if len(tot.Violations) > 0 {
		t.Fatalf("clean run reported violations: %v", tot.Violations)
	}
	if tot.Deliveries == 0 {
		t.Fatal("no deliveries checked — tap not wired")
	}
	if tot.Sweeps < 10 {
		t.Fatalf("only %d sweeps for a 10s horizon", tot.Sweeps)
	}
	if !o.Settled() {
		t.Fatal("network did not settle after drain")
	}
}

func TestBoundScaleHasTeeth(t *testing.T) {
	// A real violation: guaranteed flows are not policed, so a source at
	// 700 kbit/s on a 200 kbit/s clock rate, with 400 kbit/s of datagram
	// traffic beside it, overruns the 1 Mbit/s link. Its backlog grows
	// until the buffer caps it, and its delay passes the Parekh-Gallager
	// bound (250 ms for b = 50 kbit). An oracle that stays green here would
	// also stay green over a broken scheduler.
	n, srcs := loadedNet(t, 700)
	o := Attach(n)
	o.Arm(10)
	n.Run(10)
	drain(t, n, o, srcs)
	tot := o.Totals()
	if len(tot.Violations) == 0 {
		t.Fatal("an over-rate guaranteed source produced no violations")
	}
	found := false
	for _, v := range tot.Violations {
		if v.Checker == CheckPGBound {
			found = true
			if v.Count < 1 || v.Time <= 0 || !strings.Contains(v.Detail, "exceeds") {
				t.Fatalf("malformed violation: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("no %s violation among %v", CheckPGBound, tot.Violations)
	}
}

func TestLeakDetection(t *testing.T) {
	n, srcs := loadedNet(t, 160)
	o := Attach(n)
	o.Arm(5)
	n.Run(5)
	drain(t, n, o, srcs)
	// Steal a packet: a component that forgot to Release shows up as a
	// pool imbalance once the network is otherwise quiet.
	stolen := n.Pool().Get()
	if o.Settled() {
		t.Fatal("Settled() true with a packet checked out")
	}
	o.CheckLeaks(n.Engine().Now())
	tot := o.Totals()
	if len(tot.Violations) != 1 || tot.Violations[0].Checker != CheckLeak {
		t.Fatalf("want one %s violation, got %v", CheckLeak, tot.Violations)
	}
	packet.Release(stolen)
	if !o.Settled() {
		t.Fatal("Settled() false after returning the packet")
	}
}

// TestFloodReusesOnePool: a one-way flood frees every packet on the far side
// of a delayed link. Those frees feed the sender's next Get, so fresh
// allocation stops after warm-up and the leak check balances on the
// network's one pool.
func TestFloodReusesOnePool(t *testing.T) {
	n := core.New(core.Config{Seed: 5, LinkRate: 1e6})
	n.AddSwitch("A")
	n.AddSwitch("B")
	n.ConnectWith("A", "B", 1e6, 0.005, nil)
	f, err := n.AddDatagramFlow(1, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	src := source.NewCBR(source.CBRConfig{FlowID: 1, Class: packet.Datagram, SizeBits: 1000, Rate: 900, RNG: sim.DeriveRNG(n.Config().Seed, "flood")})
	source.AttachPool(src, f.IngressPool())
	src.Start(n.Engine(), func(p *packet.Packet) { f.Inject(p) })
	o := Attach(n)
	o.Arm(4)
	n.Run(2)
	_, _, warm := n.Pool().Stats()
	n.Run(4)
	gets, _, news := n.Pool().Stats()
	if news != warm {
		t.Errorf("fresh allocations grew from %d to %d after warm-up (%d gets)", warm, news, gets)
	}
	if f.Delivered() < 3000 {
		t.Fatalf("only %d packets crossed; the flood did not run", f.Delivered())
	}
	drain(t, n, o, []source.Source{src})
	o.CheckLeaks(n.Engine().Now())
	if tot := o.Totals(); len(tot.Violations) > 0 {
		t.Fatalf("flood reported violations: %v", tot.Violations)
	}
}

func TestRateCutDoesNotFireCapacity(t *testing.T) {
	// A live rate cut can leave existing reservations above the new
	// reservable share; that is the operator's doing, not admission's,
	// and must not be reported. Growth past the line must be.
	n := core.New(core.Config{Seed: 1})
	n.AddSwitch("S1")
	n.AddSwitch("S2")
	n.Connect("S1", "S2")
	if _, err := n.RequestGuaranteed(1, []string{"S1", "S2"},
		core.GuaranteedSpec{ClockRate: 8e5}); err != nil {
		t.Fatal(err)
	}
	o := Attach(n)
	o.Sweep(0) // baseline: 800k reserved, 900k reservable — fine
	if err := n.SetLink("S1", "S2", 8.5e5); err != nil {
		t.Fatal(err)
	}
	// Reserved 800k now exceeds the 765k reservable share, but it did
	// not grow — the cut is tolerated.
	o.Sweep(1)
	if tot := o.Totals(); len(tot.Violations) > 0 {
		t.Fatalf("rate cut flagged as a capacity violation: %v", tot.Violations)
	}
	// Simulate an admission bug: make the same over-the-line ledger look
	// freshly grown by clearing the sweep's memory of it.
	for i := range o.prevReserved {
		o.prevReserved[i] = 0
	}
	o.Sweep(2)
	tot := o.Totals()
	if len(tot.Violations) != 1 || tot.Violations[0].Checker != CheckCapacity {
		t.Fatalf("grown over-the-line ledger not caught: %v", tot.Violations)
	}
}

func TestAggregateConsistency(t *testing.T) {
	// The oracle must see through predicted-flow aggregation: a healthy
	// set of members keeps the sweep quiet, and a skewed running total —
	// the exact drift member join/leave bookkeeping could introduce — is
	// reported against the carrier.
	n := core.New(core.Config{Seed: 3})
	n.AddSwitch("S1")
	n.AddSwitch("S2")
	n.Connect("S1", "S2")
	path := []string{"S1", "S2"}
	spec := core.PredictedSpec{TokenRate: 1e4, BucketBits: 1e4, Delay: 0.1}
	var members []core.Member
	for i := 0; i < 5; i++ {
		m, err := n.RequestPredictedMember(path, 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, m)
	}
	o := Attach(n)
	o.Sweep(0)
	members[2].Release()
	o.Sweep(1) // join/leave bookkeeping must still balance
	if tot := o.Totals(); len(tot.Violations) > 0 {
		t.Fatalf("consistent aggregate flagged: %v", tot.Violations)
	}
	aggs := n.Aggregates()
	if len(aggs) != 1 {
		t.Fatalf("want 1 aggregate, got %d", len(aggs))
	}
	aggs[0].SkewTotalForTest(5e3)
	o.Sweep(2)
	tot := o.Totals()
	if len(tot.Violations) != 1 || tot.Violations[0].Checker != CheckAggregate {
		t.Fatalf("skewed aggregate total not caught: %v", tot.Violations)
	}
	if !strings.Contains(tot.Violations[0].Detail, "member(s) sum to") {
		t.Fatalf("malformed detail: %q", tot.Violations[0].Detail)
	}
}

func TestViolationDedup(t *testing.T) {
	o := &Oracle{vs: make(map[string]*Violation)}
	o.record("chk", "b", 1.5, "first")
	o.record("chk", "b", 2.5, "second")
	o.record("chk", "a", 3.5, "other subject")
	tot := Totals{}
	tot.Violations = o.Totals().Violations
	if len(tot.Violations) != 2 {
		t.Fatalf("want 2 deduplicated violations, got %v", tot.Violations)
	}
	// Sorted by (checker, subject); the duplicate keeps its first
	// occurrence's time and detail with an accumulated count.
	if v := tot.Violations[0]; v.Subject != "a" {
		t.Fatalf("not sorted: %v", tot.Violations)
	}
	if v := tot.Violations[1]; v.Count != 2 || v.Time != 1.5 || v.Detail != "first" {
		t.Fatalf("dedup kept wrong occurrence: %+v", v)
	}
}
