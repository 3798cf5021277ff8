package core

import (
	"math"
	"strings"
	"testing"

	"ispn/internal/sched"
)

// TestNoDatagramQuotaSentinel: an explicit "no datagram reservation" network
// admits reservations past the default 90% cap (the zero-value footgun fix:
// quota 0 used to be silently replaced with 0.10).
func TestNoDatagramQuotaSentinel(t *testing.T) {
	n := New(Config{DatagramQuota: NoDatagramQuota})
	n.AddSwitch("A")
	n.AddSwitch("B")
	n.Connect("A", "B")
	if _, err := n.RequestGuaranteed(1, []string{"A", "B"}, GuaranteedSpec{ClockRate: 950_000}); err != nil {
		t.Fatalf("95%% reservation with no datagram quota rejected: %v", err)
	}
	// The default still refuses the same request.
	d := New(Config{})
	d.AddSwitch("A")
	d.AddSwitch("B")
	d.Connect("A", "B")
	if _, err := d.RequestGuaranteed(1, []string{"A", "B"}, GuaranteedSpec{ClockRate: 950_000}); err == nil {
		t.Fatal("default quota admitted a 95% reservation")
	}
	// Even with no quota, the link can never be fully reserved (flow 0
	// must stay alive).
	if _, err := n.RequestGuaranteed(2, []string{"A", "B"}, GuaranteedSpec{ClockRate: 50_000}); err == nil {
		t.Fatal("reservation of the full link accepted")
	}
}

// TestNegativeLinkRatePanics: a negative LinkRate is a bug, not a default.
func TestNegativeLinkRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative LinkRate did not panic")
		}
	}()
	New(Config{LinkRate: -1})
}

// TestPerLinkProfiles: heterogeneous pipelines along one path — guaranteed
// service works across unified and wfq hops, and is refused across a FIFO
// hop with a clear diagnostic.
func TestPerLinkProfiles(t *testing.T) {
	n := New(Config{})
	for _, s := range []string{"A", "B", "C", "D"} {
		n.AddSwitch(s)
	}
	if _, err := n.ConnectWith("A", "B", 1e6, 0, nil); err != nil {
		t.Fatal(err)
	}
	wfq := sched.Profile{Kind: sched.KindWFQ}
	if _, err := n.ConnectWith("B", "C", 1e6, 0, &wfq); err != nil {
		t.Fatal(err)
	}
	fifo := sched.Profile{Kind: sched.KindFIFO}
	if _, err := n.ConnectWith("C", "D", 1e6, 0, &fifo); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RequestGuaranteed(1, []string{"A", "B", "C"}, GuaranteedSpec{ClockRate: 100_000}); err != nil {
		t.Fatalf("guaranteed across unified+wfq hops: %v", err)
	}
	_, err := n.RequestGuaranteed(2, []string{"B", "C", "D"}, GuaranteedSpec{ClockRate: 100_000})
	if err == nil || !strings.Contains(err.Error(), "cannot reserve a clock rate") {
		t.Fatalf("guaranteed across a FIFO hop: err = %v, want refusal", err)
	}
	// The rejected request must not leave a dangling reservation on the
	// wfq hop it passed first.
	pt, _ := n.port("B", "C")
	if res := n.Pipeline(pt).Reserved(); res != 100_000 {
		t.Fatalf("B->C reserved %v, want only flow 1's 100000", res)
	}
}

// TestUnknownProfileKind: an unregistered pipeline kind is a diagnostic, not
// a panic.
func TestUnknownProfileKind(t *testing.T) {
	n := New(Config{})
	n.AddSwitch("A")
	n.AddSwitch("B")
	bad := sched.Profile{Kind: "weird"}
	_, err := n.ConnectWith("A", "B", 1e6, 0, &bad)
	if err == nil || !strings.Contains(err.Error(), `unknown pipeline kind "weird"`) {
		t.Fatalf("unknown kind: err = %v", err)
	}
}

// TestHeterogeneousBounds: predicted bounds sum per-port class targets, and
// the guaranteed PG bound sums per-hop max packet sizes.
func TestHeterogeneousBounds(t *testing.T) {
	n := New(Config{})
	for _, s := range []string{"A", "B", "C"} {
		n.AddSwitch(s)
	}
	slow := sched.Profile{ClassTargets: []float64{0.064, 0.64}}
	if _, err := n.ConnectWith("A", "B", 1e6, 0, &slow); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ConnectWith("B", "C", 1e6, 0, nil); err != nil {
		t.Fatal(err)
	}
	want := 0.064 + 0.032
	if got := n.advertisedBound(n.topo.PathPorts([]string{"A", "B", "C"}), 0); got != want {
		t.Errorf("heterogeneous class-0 bound = %v, want %v", got, want)
	}
	// A homogeneous path still matches the closed-form hops*target.
	if got := n.advertisedBound(n.topo.PathPorts([]string{"B", "C"}), 1); got != 0.32 {
		t.Errorf("homogeneous class-1 bound = %v, want 0.32", got)
	}
	// Guaranteed flow: per-hop packetization term uses downstream hops.
	f, err := n.RequestGuaranteed(1, []string{"A", "B", "C"}, GuaranteedSpec{ClockRate: 85_000, BucketBits: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if want := PGBound(50_000, 85_000, 2, 1000); f.Bound() != want {
		t.Errorf("guaranteed bound = %v, want PGBound %v", f.Bound(), want)
	}
}

// TestSetLinkProfileCarriesReservations: a live profile swap re-registers
// guaranteed flows on the new pipeline, refuses swaps that cannot honor
// them, and migrates queued backlog.
func TestSetLinkProfileCarriesReservations(t *testing.T) {
	n := New(Config{})
	n.AddSwitch("A")
	n.AddSwitch("B")
	n.Connect("A", "B")
	if _, err := n.RequestGuaranteed(1, []string{"A", "B"}, GuaranteedSpec{ClockRate: 300_000}); err != nil {
		t.Fatal(err)
	}
	pt, _ := n.port("A", "B")

	// A FIFO pipeline cannot honor the reservation.
	if err := n.SetLinkProfile("A", "B", sched.Profile{Kind: sched.KindFIFO}); err == nil {
		t.Fatal("swap to FIFO accepted despite a live reservation")
	}
	// A quota that does not leave room is refused.
	if err := n.SetLinkProfile("A", "B", sched.Profile{Kind: sched.KindWFQ, DatagramQuota: 0.8}); err == nil {
		t.Fatal("swap whose quota does not cover reservations accepted")
	}
	// A WFQ pipeline carries it over.
	if err := n.SetLinkProfile("A", "B", sched.Profile{Kind: sched.KindWFQ}); err != nil {
		t.Fatalf("swap to wfq: %v", err)
	}
	if res := n.Pipeline(pt).Reserved(); res != 300_000 {
		t.Fatalf("post-swap reserved = %v, want 300000", res)
	}
	if _, unified := n.Pipeline(pt).(*sched.Unified); unified {
		t.Fatal("the swapped link still runs a unified pipeline")
	}
	if p, _ := n.LinkProfile("A", "B"); p.Kind != sched.KindWFQ {
		t.Fatalf("LinkProfile kind = %q, want wfq", p.Kind)
	}
	// Renegotiation and release keep working against the new pipeline.
	if err := n.RenegotiateGuaranteed(1, GuaranteedSpec{ClockRate: 200_000}); err != nil {
		t.Fatalf("renegotiate after swap: %v", err)
	}
	if res := n.Pipeline(pt).Reserved(); res != 200_000 {
		t.Fatalf("post-renegotiation reserved = %v", res)
	}
	n.Release(1)
	if res := n.Pipeline(pt).Reserved(); res != 0 {
		t.Fatalf("post-release reserved = %v, want 0", res)
	}
}

// TestSetLinkProfileMigratesBacklog: packets queued at swap time are not
// lost — they drain through the new pipeline.
func TestSetLinkProfileMigratesBacklog(t *testing.T) {
	n := New(Config{})
	n.AddSwitch("A")
	n.AddSwitch("B")
	n.Connect("A", "B")
	f, err := n.AddDatagramFlow(1, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	// Queue a burst, swap mid-burst, then drain.
	for i := 0; i < 50; i++ {
		p := n.Pool().Get()
		p.Size = 1000
		p.CreatedAt = n.Engine().Now()
		f.Inject(p)
	}
	if err := n.SetLinkProfile("A", "B", sched.Profile{Kind: sched.KindFIFOPlus}); err != nil {
		t.Fatal(err)
	}
	n.Run(1)
	if f.Delivered() != 50 {
		t.Fatalf("delivered %d of 50 packets across a mid-burst profile swap", f.Delivered())
	}
}

// TestPredictedNeedsALink: a single-node path keeps its historical
// diagnostic instead of a misleading "no class can meet the target".
func TestPredictedNeedsALink(t *testing.T) {
	n := New(Config{})
	n.AddSwitch("A")
	_, err := n.RequestPredicted(1, []string{"A"}, PredictedSpec{
		TokenRate: 85_000, BucketBits: 50_000, Delay: 0.5, Loss: 0.01,
	})
	if err == nil || !strings.Contains(err.Error(), "needs at least one link") {
		t.Fatalf("single-node predicted path: err = %v, want 'needs at least one link'", err)
	}
}

// TestPathClassesClamp: a hop with a single predicted class clamps rather
// than forbids a class-1 flow, and the bound charges its only target.
func TestPathClassesClamp(t *testing.T) {
	n := New(Config{})
	for _, s := range []string{"A", "B", "C"} {
		n.AddSwitch(s)
	}
	one := sched.Profile{ClassTargets: []float64{0.05}}
	if _, err := n.ConnectWith("A", "B", 1e6, 0, &one); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ConnectWith("B", "C", 1e6, 0, nil); err != nil {
		t.Fatal(err)
	}
	f, err := n.RequestPredictedClass(1, []string{"A", "B", "C"}, 1, PredictedSpec{
		TokenRate: 85_000, BucketBits: 50_000, Delay: 1, Loss: 0.01,
	})
	if err != nil {
		t.Fatalf("class-1 flow across a 1-class hop: %v", err)
	}
	if want := 0.05 + 0.32; math.Abs(f.Bound()-want) > 1e-12 {
		t.Errorf("clamped bound = %v, want %v", f.Bound(), want)
	}
	// class 2 exceeds every hop's class count.
	if _, err := n.RequestPredictedClass(2, []string{"A", "B", "C"}, 2, PredictedSpec{
		TokenRate: 85_000, BucketBits: 50_000, Delay: 1, Loss: 0.01,
	}); err == nil {
		t.Fatal("class 2 accepted on a 2-class path")
	}
}
