package core

import (
	"reflect"
	"strings"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/source"
)

// newChain builds A -> B -> C at 1 Mbit/s with admission control as asked.
func newChain(t *testing.T, admission bool) *Network {
	t.Helper()
	n := New(Config{Seed: 7, AdmissionControl: admission})
	for _, s := range []string{"A", "B", "C"} {
		n.AddSwitch(s)
	}
	n.Connect("A", "B")
	n.Connect("B", "C")
	return n
}

func TestConnectWithDiagnostics(t *testing.T) {
	n := New(Config{})
	n.AddSwitch("A")
	n.AddSwitch("B")
	cases := []struct {
		from, to    string
		rate, delay float64
		want        string
	}{
		{"A", "X", 1e6, 0, `unknown switch "X"`},
		{"X", "B", 1e6, 0, `unknown switch "X"`},
		{"A", "B", 0, 0, "rate must be positive"},
		{"A", "B", -5, 0, "rate must be positive"},
		{"A", "B", 1e6, -0.001, "delay must be non-negative"},
	}
	for _, tc := range cases {
		if _, err := n.ConnectWith(tc.from, tc.to, tc.rate, tc.delay, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ConnectWith(%s,%s,%v,%v) err = %v, want containing %q",
				tc.from, tc.to, tc.rate, tc.delay, err, tc.want)
		}
	}
	if _, err := n.ConnectWith("A", "B", 1e6, 0, nil); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if _, err := n.ConnectWith("A", "B", 1e6, 0, nil); err == nil || !strings.Contains(err.Error(), "duplicate link") {
		t.Fatalf("duplicate link err = %v, want duplicate diagnostic", err)
	}
}

// TestReleaseFreesGuaranteedCapacity is the departure-releases-capacity
// contract: a request that the reservation quota rejects while an earlier
// flow holds the link is admitted once that flow departs.
func TestReleaseFreesGuaranteedCapacity(t *testing.T) {
	n := newChain(t, false)
	path := []string{"A", "B", "C"}
	if _, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 5e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("first reservation rejected: %v", err)
	}
	// 500k + 500k > 0.9 * 1M: quota rejection.
	if _, err := n.RequestGuaranteed(2, path, GuaranteedSpec{ClockRate: 5e5, BucketBits: 5e4}); err == nil {
		t.Fatal("oversubscribing reservation was admitted")
	}
	n.Release(1)
	if _, err := n.RequestGuaranteed(3, path, GuaranteedSpec{ClockRate: 5e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("post-departure reservation rejected: %v", err)
	}
}

// Mid-run departure with traffic in flight: the tail drains, nothing panics,
// and the released WFQ share is reusable.
func TestMidRunDepartureDrains(t *testing.T) {
	n := newChain(t, false)
	path := []string{"A", "B", "C"}
	f, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	src := source.NewCBR(source.CBRConfig{SizeBits: 1000, Rate: 200, RNG: sim.DeriveRNG(7, "cbr")})
	generated := 0
	src.Start(n.Engine(), func(p *packet.Packet) { generated++; f.Inject(p) })
	n.Run(5)
	src.Stop()
	n.Release(1)
	n.Run(5)
	delivered := f.Delivered()
	if delivered == 0 {
		t.Fatal("no packets delivered before departure")
	}
	if got := generated; got >= 1001 {
		t.Fatalf("stopped source kept generating: %d packets", got)
	}
	// The freed share is immediately reusable at full size.
	if _, err := n.RequestGuaranteed(2, path, GuaranteedSpec{ClockRate: 8e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("released share not reusable: %v", err)
	}
	n.Run(1)
	if f.Delivered() < delivered {
		t.Fatal("delivered count went backwards")
	}
}

// TestReleaseThenRequestSameIDWhileDraining holds Release to its word — "the
// id is free for a new request" — in the window where the departed flow's
// backlog still holds its scheduler registration at a hop: the second request
// succeeds, the old tail reaches the old flow's sink, the newcomer's packets
// the newcomer's, and every packet goes back to the pool.
func TestReleaseThenRequestSameIDWhileDraining(t *testing.T) {
	n := newChain(t, false)
	path := []string{"A", "B", "C"}
	inject := func(f *Flow, k int) {
		for i := 0; i < k; i++ {
			p := n.Pool().Get()
			p.Size = 1000
			if !f.Inject(p) {
				t.Fatal("conforming packet refused at the edge")
			}
		}
	}
	old, err := n.RequestGuaranteed(5, path, GuaranteedSpec{ClockRate: 1e5, BucketBits: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	inject(old, 3) // one on the wire, two queued at A->B
	n.Release(5)
	fresh, err := n.RequestGuaranteed(5, path, GuaranteedSpec{ClockRate: 3e5, BucketBits: 5e4})
	if err != nil {
		t.Fatalf("id 5 not reusable while its old backlog drains: %v", err)
	}
	inject(fresh, 2)
	n.Run(1)
	if old.Delivered() != 3 || fresh.Delivered() != 2 {
		t.Fatalf("delivered old %d / new %d, want 3 / 2", old.Delivered(), fresh.Delivered())
	}
	if gets, puts, _ := n.Pool().Stats(); gets != puts {
		t.Fatalf("packet leak: %d gets, %d puts", gets, puts)
	}
}

// A guaranteed path that crosses one directed link twice is refused whole. A
// link holds one clock rate per flow, so the second visit used to pass the
// quota check and then panic in the scheduler's flow table ("flow 2 already
// registered") — reachable from a scenario file and from POST /events. The
// refusal names the link and leaves no reservation or ledger entry behind.
func TestGuaranteedLoopedPathRefused(t *testing.T) {
	spec := GuaranteedSpec{ClockRate: 1e5, BucketBits: 5e4}
	for _, admit := range []bool{false, true} {
		n := New(Config{Seed: 7, AdmissionControl: admit})
		n.AddSwitch("A")
		n.AddSwitch("B")
		n.ConnectDuplex("A", "B")
		// A resident flow, so the state to preserve is not all zeros.
		if _, err := n.RequestGuaranteed(1, []string{"A", "B"}, spec); err != nil {
			t.Fatal(err)
		}
		snapshot := func() (out [][2]float64) {
			for _, nd := range n.Topology().Nodes() {
				for _, pt := range nd.Ports() {
					nu := 0.0
					if c := n.admit[pt.Index()]; c != nil {
						nu = c.Utilization(n.Engine().Now())
					}
					out = append(out, [2]float64{n.Pipeline(pt).Reserved(), nu})
				}
			}
			return out
		}
		before := snapshot()
		_, err := n.RequestGuaranteed(2, []string{"A", "B", "A", "B"}, spec)
		if err == nil || !strings.Contains(err.Error(), "crosses link A->B twice") {
			t.Fatalf("admission %v: looped path not refused by name: %v", admit, err)
		}
		if n.Flow(2) != nil {
			t.Fatalf("admission %v: refused flow is registered", admit)
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("admission %v: refusal moved (Reserved, ν̂) per port from %v to %v", admit, before, after)
		}
		// Visiting a switch twice over distinct links reserves once per link.
		if _, err := n.RequestGuaranteed(3, []string{"A", "B", "A"}, spec); err != nil {
			t.Fatalf("admission %v: A -> B -> A refused: %v", admit, err)
		}
	}
}

// Release with admission control on: the warmup ledger entry is handed back,
// so a follow-up request inside the warmup window is admitted.
func TestReleaseReturnsAdmissionLedger(t *testing.T) {
	n := newChain(t, true)
	path := []string{"A", "B", "C"}
	if _, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 8e5, BucketBits: 5e4}); err != nil {
		t.Fatal(err)
	}
	// Inside the warmup window the declared 800k blocks another 200k.
	if _, err := n.RequestGuaranteed(2, path, GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4}); err == nil {
		t.Fatal("ledger did not block the follow-up")
	}
	n.Release(1)
	if _, err := n.RequestGuaranteed(3, path, GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("released ledger capacity still blocking: %v", err)
	}
}

func TestSetLinkAndFailRestore(t *testing.T) {
	n := newChain(t, false)
	path := []string{"A", "B", "C"}
	if _, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 3e5, BucketBits: 5e4}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLink("A", "B", 2e5, 0); err == nil {
		t.Fatal("rate below reservations accepted")
	}
	if err := n.SetLink("A", "B", 2e6, 0.010); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	pt, _ := n.port("A", "B")
	if pt.Bandwidth() != 2e6 || pt.PropDelay() != 0.010 {
		t.Fatalf("link not reconfigured: %v bits/s, %vs", pt.Bandwidth(), pt.PropDelay())
	}
	if err := n.SetLink("A", "X", 1e6, 0); err == nil {
		t.Fatal("SetLink on unknown link did not error")
	}
	if err := n.FailLink("B", "C"); err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreLink("B", "C"); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink("C", "A"); err == nil {
		t.Fatal("FailLink on unknown link did not error")
	}
}

// Link failure while a guaranteed flow is active: queued and arriving
// packets are dropped (not stranded, no panic), service resumes on restore.
func TestLinkFailureUnderGuaranteedLoad(t *testing.T) {
	n := newChain(t, false)
	path := []string{"A", "B", "C"}
	f, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	src := source.NewCBR(source.CBRConfig{SizeBits: 1000, Rate: 200, RNG: sim.DeriveRNG(7, "cbr")})
	src.Start(n.Engine(), func(p *packet.Packet) { f.Inject(p) })
	n.Run(5)
	before := f.Delivered()
	if before == 0 {
		t.Fatal("no traffic before failure")
	}
	if err := n.FailLink("B", "C"); err != nil {
		t.Fatal(err)
	}
	n.Run(5)
	during := f.Delivered()
	pt, _ := n.port("B", "C")
	if pt.Counter().Dropped == 0 {
		t.Fatal("failed link dropped nothing under load")
	}
	if err := n.RestoreLink("B", "C"); err != nil {
		t.Fatal(err)
	}
	n.Run(5)
	if f.Delivered() <= during {
		t.Fatal("service did not resume after restore")
	}
}

func TestRenegotiateGuaranteed(t *testing.T) {
	n := newChain(t, false)
	path := []string{"A", "B", "C"}
	f, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4})
	if err != nil {
		t.Fatal(err)
	}
	oldBound := f.Bound()
	if err := n.RenegotiateGuaranteed(1, GuaranteedSpec{ClockRate: 4e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if f.Bound() >= oldBound {
		t.Fatalf("bound did not tighten with a faster clock: %v -> %v", oldBound, f.Bound())
	}
	// Growing past the quota must fail and leave the spec unchanged.
	if err := n.RenegotiateGuaranteed(1, GuaranteedSpec{ClockRate: 9.5e5, BucketBits: 5e4}); err == nil {
		t.Fatal("quota-busting renegotiation accepted")
	}
	if f.declaredRate != 4e5 {
		t.Fatalf("failed renegotiation mutated the flow: rate %v", f.declaredRate)
	}
	if err := n.RenegotiateGuaranteed(1, GuaranteedSpec{ClockRate: 1e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := n.RenegotiateGuaranteed(99, GuaranteedSpec{ClockRate: 1e5}); err == nil {
		t.Fatal("renegotiating unknown flow did not error")
	}
}

func TestRenegotiatePredicted(t *testing.T) {
	n := newChain(t, false)
	path := []string{"A", "B", "C"}
	f, err := n.RequestPredicted(1, path, PredictedSpec{TokenRate: 8.5e4, BucketBits: 5e4, Delay: 0.7, Loss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	class := f.Priority
	if err := n.RenegotiatePredicted(1, PredictedSpec{TokenRate: 1.7e5, BucketBits: 6e4, Loss: 0.01}); err != nil {
		t.Fatalf("renegotiate: %v", err)
	}
	if f.Priority != class {
		t.Fatal("renegotiation moved the flow to another class")
	}
	if f.declaredRate != 1.7e5 {
		t.Fatalf("declared rate = %v, want 1.7e5", f.declaredRate)
	}
	if err := n.RenegotiatePredicted(99, PredictedSpec{TokenRate: 1e5, BucketBits: 1e4}); err == nil {
		t.Fatal("renegotiating unknown flow did not error")
	}
	if err := n.RenegotiatePredicted(1, PredictedSpec{TokenRate: -1, BucketBits: 1e4}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// A mid-run link rate change must reach the admission controller: a request
// sized for the old capacity has to be rejected against the new one.
func TestSetLinkUpdatesAdmissionRate(t *testing.T) {
	n := New(Config{Seed: 7, AdmissionControl: true, LinkRate: 10e6})
	n.AddSwitch("A")
	n.AddSwitch("B")
	n.Connect("A", "B")
	path := []string{"A", "B"}
	// Create the controller under the 10 Mbit/s rate.
	if _, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 1e5, BucketBits: 5e4}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLink("A", "B", 1e6, 0); err != nil {
		t.Fatal(err)
	}
	// 800k fits 90% of 10M easily but not 90% of 1M on top of the 100k.
	if _, err := n.RequestGuaranteed(2, path, GuaranteedSpec{ClockRate: 8.5e5, BucketBits: 5e4}); err == nil {
		t.Fatal("admission used the stale 10 Mbit/s link rate after SetLink")
	}
	if _, err := n.RequestGuaranteed(3, path, GuaranteedSpec{ClockRate: 5e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("right-sized request rejected against the new rate: %v", err)
	}
}

// Departure of a renegotiated flow must hand back every warmup-ledger entry
// it committed (initial rate and the renegotiation delta).
func TestReleaseAfterRenegotiationFreesLedger(t *testing.T) {
	n := newChain(t, true)
	path := []string{"A", "B", "C"}
	if _, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 4e5, BucketBits: 5e4}); err != nil {
		t.Fatal(err)
	}
	if err := n.RenegotiateGuaranteed(1, GuaranteedSpec{ClockRate: 6e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("grow: %v", err)
	}
	// Inside warmup, 600k of declared load blocks a 400k follow-up.
	if _, err := n.RequestGuaranteed(2, path, GuaranteedSpec{ClockRate: 4e5, BucketBits: 5e4}); err == nil {
		t.Fatal("ledger did not reflect the renegotiated rate")
	}
	n.Release(1)
	if _, err := n.RequestGuaranteed(3, path, GuaranteedSpec{ClockRate: 4e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("renegotiated flow's departure did not free its ledger entries: %v", err)
	}
}

// A multi-hop request refused at a later hop must roll back the ledger
// entries already committed at earlier hops.
func TestPartialAdmissionRollsBack(t *testing.T) {
	n := New(Config{Seed: 7, AdmissionControl: true})
	for _, s := range []string{"A", "B", "C"} {
		n.AddSwitch(s)
	}
	n.Connect("A", "B") // 1 Mbit/s
	if _, err := n.ConnectWith("B", "C", 2e5, 0, nil); err != nil {
		t.Fatal(err)
	}
	// 500k passes A->B but fails B->C (0.9 * 200k = 180k): the whole
	// request is refused and A->B must not keep a phantom 500k charge.
	if _, err := n.RequestGuaranteed(1, []string{"A", "B", "C"}, GuaranteedSpec{ClockRate: 5e5, BucketBits: 5e4}); err == nil {
		t.Fatal("undersized hop admitted 500k")
	}
	if _, err := n.RequestGuaranteed(2, []string{"A", "B"}, GuaranteedSpec{ClockRate: 8e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("failed request left phantom load on the first hop: %v", err)
	}
}

// Shrink-then-grow must leave the flow's ledger claim at exactly its new
// total rate — not the stale original plus the grow delta.
func TestRenegotiateShrinkReplacesLedger(t *testing.T) {
	n := newChain(t, true)
	path := []string{"A", "B", "C"}
	if _, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 8e5, BucketBits: 5e4}); err != nil {
		t.Fatal(err)
	}
	if err := n.RenegotiateGuaranteed(1, GuaranteedSpec{ClockRate: 2e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	// With the claim shrunk to 200k, a 600k request fits (200+600 < 900);
	// a stale 800k entry would have blocked it.
	if _, err := n.RequestGuaranteed(2, path, GuaranteedSpec{ClockRate: 6e5, BucketBits: 5e4}); err != nil {
		t.Fatalf("shrunk flow still charges its old rate: %v", err)
	}
}

// Growing only the bucket is still a bigger commitment: criterion 2 bounds
// burst depth against class delay headroom and must be re-tested.
func TestRenegotiateBucketGrowthIsTested(t *testing.T) {
	n := newChain(t, true)
	path := []string{"A", "B", "C"}
	f, err := n.RequestPredicted(1, path, PredictedSpec{TokenRate: 8.5e4, BucketBits: 5e4, Delay: 1.0, Loss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Same rate, vastly deeper bucket: (D=0.32)(µ−ν̂) ≈ 262kbit of room,
	// so a 5Mbit bucket must be refused and the old spec kept.
	err = n.RenegotiatePredicted(1, PredictedSpec{TokenRate: 8.5e4, BucketBits: 5e6, Loss: 0.01})
	if err == nil {
		t.Fatal("unbounded bucket growth passed without an admission test")
	}
	if f.PredictedSpec().BucketBits != 5e4 {
		t.Fatalf("failed renegotiation mutated the bucket: %v", f.PredictedSpec().BucketBits)
	}
	// A modest growth fits and is accepted.
	if err := n.RenegotiatePredicted(1, PredictedSpec{TokenRate: 8.5e4, BucketBits: 8e4, Loss: 0.01}); err != nil {
		t.Fatalf("modest bucket growth refused: %v", err)
	}
}

// A partial renegotiation (Delay unset) must keep the flow's negotiated
// delay target readable, not a placeholder.
func TestRenegotiatePredictedKeepsDelayTarget(t *testing.T) {
	n := newChain(t, false)
	f, err := n.RequestPredicted(1, []string{"A", "B", "C"}, PredictedSpec{TokenRate: 8.5e4, BucketBits: 5e4, Delay: 0.7, Loss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RenegotiatePredicted(1, PredictedSpec{TokenRate: 1e5, BucketBits: 5e4}); err != nil {
		t.Fatal(err)
	}
	if got := f.PredictedSpec().Delay; got != 0.7 {
		t.Fatalf("stored delay target = %v after partial renegotiation, want 0.7", got)
	}
}
