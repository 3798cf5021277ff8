package core

import (
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
)

func TestAggregateSharesOneCarrier(t *testing.T) {
	n := twoSwitch(Config{Seed: 1})
	path := []string{"S1", "S2"}
	spec := PredictedSpec{TokenRate: 1e4, BucketBits: 1e4, Delay: 0.1}
	m1, err := n.RequestPredictedMember(path, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := n.RequestPredictedMember(path, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Flow() != m2.Flow() {
		t.Fatal("members of one (path, class) must share a carrier")
	}
	c := m1.Flow()
	if c.ID < 1<<31 {
		t.Fatalf("carrier id %d is inside the caller range", c.ID)
	}
	if len(n.Flows()) != 1 {
		t.Fatalf("aggregation registered %d flows, want 1 carrier", len(n.Flows()))
	}
	if got := c.DeclaredRate(); got != 2e4 {
		t.Fatalf("carrier declares %v bits/s, want the member sum 2e4", got)
	}
	if got := c.pspec.BucketBits; got != 2e4 {
		t.Fatalf("carrier bucket %v bits, want the member sum 2e4", got)
	}
	// A different class on the same path is a different aggregate.
	m3, err := n.RequestPredictedMember(path, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Flow() == c {
		t.Fatal("classes must not share a carrier")
	}
	if got := len(n.Aggregates()); got != 2 {
		t.Fatalf("want 2 aggregates, got %d", got)
	}

	// Departures: the carrier survives until its last member leaves.
	m1.Release()
	m1.Release() // double release is a no-op
	if n.Flow(c.ID) != c {
		t.Fatal("carrier released while a member remains")
	}
	if got := c.DeclaredRate(); got != 1e4 {
		t.Fatalf("carrier declares %v after a departure, want 1e4", got)
	}
	m2.Release()
	if n.Flow(c.ID) != nil {
		t.Fatal("carrier must be released with its last member")
	}
	if got := len(n.Aggregates()); got != 1 {
		t.Fatalf("want 1 aggregate after the class-0 carrier left, got %d", got)
	}

	// A new member after total teardown recreates the aggregate, and
	// recycled slots keep handles independent.
	m4, err := n.RequestPredictedMember(path, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m4.Flow() == c {
		t.Fatal("recreated aggregate reused the dead carrier")
	}
	if got := m4.Flow().DeclaredRate(); got != 1e4 {
		t.Fatalf("recreated carrier declares %v, want 1e4", got)
	}
}

func TestAggregateMemberPolicingIsIndependent(t *testing.T) {
	// Section 8 keeps (r, b) enforcement per flow at the edge; folding
	// flows into a carrier must not let one member spend another's tokens.
	n := twoSwitch(Config{Seed: 1})
	path := []string{"S1", "S2"}
	// Each bucket holds exactly two 1000-bit packets and refills slowly.
	spec := PredictedSpec{TokenRate: 1e3, BucketBits: 2e3, Delay: 0.1}
	m1, err := n.RequestPredictedMember(path, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := n.RequestPredictedMember(path, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	inject := func(m Member) bool {
		p := n.Pool().Get()
		p.Size = 1000
		p.CreatedAt = n.Engine().Now()
		return m.Inject(p)
	}
	for i := 0; i < 2; i++ {
		if !inject(m1) {
			t.Fatalf("m1 packet %d should conform (bucket starts full)", i)
		}
	}
	if inject(m1) {
		t.Fatal("m1's third back-to-back packet must be dropped")
	}
	// m2's bucket is untouched by m1's spending spree.
	if !inject(m2) {
		t.Fatal("m2's first packet dropped — buckets are not independent")
	}
	c := m1.Flow()
	st := c.PolicerStats()
	if st.Total != 4 || st.Dropped != 1 {
		t.Fatalf("carrier policer counts = %+v, want 4 offered / 1 dropped", st)
	}
	n.Run(1)
	if got := c.Delivered(); got != 3 {
		t.Fatalf("carrier delivered %d, want the 3 conforming packets", got)
	}
}

func TestAggregateCarriesTraffic(t *testing.T) {
	// Aggregated members deliver through the carrier: deliveries, delays
	// and bounds are aggregate-level, and the advertised bound matches
	// what a plain predicted flow would get on the same (path, class).
	n := twoSwitch(Config{Seed: 2})
	path := []string{"S1", "S2"}
	spec := PredictedSpec{TokenRate: 85000, BucketBits: 50000, Delay: 0.1}
	m, err := n.RequestPredictedMember(path, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := n.RequestPredictedClass(1, path, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Flow().Bound() != plain.Bound() {
		t.Fatalf("carrier bound %v != plain flow bound %v", m.Flow().Bound(), plain.Bound())
	}
	src := source.NewCBR(source.CBRConfig{
		FlowID: m.Flow().ID, SizeBits: 1000, Rate: 80, RNG: sim.DeriveRNG(n.Config().Seed, "agg"),
	})
	src.Start(n.Engine(), func(p *packet.Packet) { m.Inject(p) })
	n.Run(5)
	source.StopSource(src)
	n.Run(1)
	if got := m.Flow().Delivered(); got < 350 {
		t.Fatalf("carrier delivered %d packets over 5s at 80 pkt/s", got)
	}
}

func TestAggregateMemberAdmission(t *testing.T) {
	// Admission charges each member individually; a refused member leaves
	// no aggregate (or carrier) behind, and members keep being charged
	// against the same link once the carrier exists.
	n := twoSwitch(Config{AdmissionControl: true, Seed: 1})
	path := []string{"S1", "S2"}
	if _, err := n.RequestPredictedMember(path, 0,
		PredictedSpec{TokenRate: 2e6, BucketBits: 1e4, Delay: 0.1}); err == nil {
		t.Fatal("a member declaring twice the link rate must be refused")
	}
	if got := len(n.Aggregates()); got != 0 {
		t.Fatalf("refused first member left %d aggregate(s) behind", got)
	}
	if got := len(n.Flows()); got != 0 {
		t.Fatalf("refused first member left %d flow(s) behind", got)
	}
	accepted := 0
	var members []Member
	for i := 0; i < 20; i++ {
		m, err := n.RequestPredictedMember(path, 0,
			PredictedSpec{TokenRate: 1e5, BucketBits: 1e4, Delay: 0.1})
		if err == nil {
			accepted++
			members = append(members, m)
		}
	}
	if accepted == 0 || accepted >= 20 {
		t.Fatalf("accepted %d members, want some but not all", accepted)
	}
	for _, m := range members {
		m.Release()
	}
	if got := len(n.Aggregates()); got != 0 {
		t.Fatalf("%d aggregate(s) survive full departure", got)
	}
}
