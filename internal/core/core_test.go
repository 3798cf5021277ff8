package core

import (
	"math"
	"slices"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
	"ispn/internal/sim"
	"ispn/internal/source"
)

// twoSwitch builds S1 -> S2 with defaults.
func twoSwitch(cfg Config) *Network {
	n := New(cfg)
	n.AddSwitch("S1")
	n.AddSwitch("S2")
	n.Connect("S1", "S2")
	return n
}

func TestPGBoundMatchesPaperTable3(t *testing.T) {
	// The paper's printed Parekh-Gallager bounds (in ms, 1000-bit
	// packets): Guaranteed-Average, r = 85 pkt/s = 85000 bits/s,
	// b = 50 packets = 50000 bits.
	cases := []struct {
		b, r  float64
		hops  int
		want  float64 // ms
		label string
	}{
		{50000, 85000, 1, 588.24, "Average path 1"},
		{50000, 85000, 3, 611.76, "Average path 3"},
		{1000, 170000, 2, 11.76, "Peak path 2"},
		{1000, 170000, 4, 23.53, "Peak path 4"},
	}
	for _, c := range cases {
		got := PGBound(c.b, c.r, c.hops, 1000) * 1000
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("%s: PGBound = %.2f ms, want %.2f", c.label, got, c.want)
		}
	}
}

func TestPGBoundDegenerate(t *testing.T) {
	if !math.IsInf(PGBound(1, 1, 0, 1), 1) {
		t.Fatal("0 hops should be +Inf")
	}
	if !math.IsInf(PGBound(1, 0, 1, 1), 1) {
		t.Fatal("0 rate should be +Inf")
	}
}

func TestSpecValidation(t *testing.T) {
	if err := (GuaranteedSpec{ClockRate: 0}).Validate(); err == nil {
		t.Error("zero clock rate accepted")
	}
	if err := (GuaranteedSpec{ClockRate: 1}).Validate(); err != nil {
		t.Error(err)
	}
	bad := []PredictedSpec{
		{TokenRate: 0, BucketBits: 1, Delay: 1},
		{TokenRate: 1, BucketBits: 0, Delay: 1},
		{TokenRate: 1, BucketBits: 1, Delay: 0},
		{TokenRate: 1, BucketBits: 1, Delay: 1, Loss: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := (PredictedSpec{TokenRate: 1, BucketBits: 1, Delay: 1, Loss: 0.01}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestGuaranteedReservationQuota(t *testing.T) {
	n := twoSwitch(Config{})
	// 0.9 Mbit/s is reservable; the next byte is not.
	if _, err := n.RequestGuaranteed(1, []string{"S1", "S2"}, GuaranteedSpec{ClockRate: 8e5}); err != nil {
		t.Fatalf("800k reservation failed: %v", err)
	}
	if _, err := n.RequestGuaranteed(2, []string{"S1", "S2"}, GuaranteedSpec{ClockRate: 2e5}); err == nil {
		t.Fatal("reservation into the datagram quota accepted")
	}
	// Releasing frees capacity.
	n.Release(1)
	if _, err := n.RequestGuaranteed(3, []string{"S1", "S2"}, GuaranteedSpec{ClockRate: 2e5}); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestDuplicateFlowIDRejected(t *testing.T) {
	n := twoSwitch(Config{})
	if _, err := n.RequestGuaranteed(1, []string{"S1", "S2"}, GuaranteedSpec{ClockRate: 1e5}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RequestGuaranteed(1, []string{"S1", "S2"}, GuaranteedSpec{ClockRate: 1e5}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := n.RequestPredictedClass(1, []string{"S1", "S2"}, 0, PredictedSpec{TokenRate: 1e5, BucketBits: 1e4, Delay: 1}); err == nil {
		t.Fatal("duplicate id accepted for predicted")
	}
	if _, err := n.AddDatagramFlow(1, []string{"S1", "S2"}); err == nil {
		t.Fatal("duplicate id accepted for datagram")
	}
}

// TestReservedFlowIDRefused: sched.Flow0ID names the pseudo flow every port
// registers, so a request for it is refused for every class before
// admission runs, and claims nothing.
func TestReservedFlowIDRefused(t *testing.T) {
	n := twoSwitch(Config{})
	path := []string{"S1", "S2"}
	if _, err := n.RequestGuaranteed(sched.Flow0ID, path, GuaranteedSpec{ClockRate: 8e5}); err == nil {
		t.Error("reserved id accepted for guaranteed")
	}
	if _, err := n.RequestPredictedClass(sched.Flow0ID, path, 0, PredictedSpec{TokenRate: 1e5, BucketBits: 1e4, Delay: 1}); err == nil {
		t.Error("reserved id accepted for predicted")
	}
	if _, err := n.AddDatagramFlow(sched.Flow0ID, path); err == nil {
		t.Error("reserved id accepted for datagram")
	}
	if _, err := n.RequestGuaranteed(1, path, GuaranteedSpec{ClockRate: 8e5}); err != nil {
		t.Fatalf("after the refusals, the reservable rate is not all free: %v", err)
	}
}

func TestGuaranteedDelayWithinPGBound(t *testing.T) {
	// End-to-end: a policed Markov flow with clock rate = peak rate must
	// see queueing delays below its P-G bound even with heavy predicted
	// cross-traffic.
	n := twoSwitch(Config{Seed: 17})
	const A = 85.0
	g, err := n.RequestGuaranteed(1, []string{"S1", "S2"},
		GuaranteedSpec{ClockRate: 2 * A * 1000, BucketBits: 1000})
	if err != nil {
		t.Fatal(err)
	}
	gsrc := source.NewPoliced(source.NewMarkov(source.MarkovConfig{
		FlowID: 1, SizeBits: 1000, PeakRate: 2 * A, AvgRate: A, Burst: 5,
		RNG: sim.DeriveRNG(n.Config().Seed, "g"),
	}), 2*A, 1) // (P, 1): conforms to the peak-rate bucket the bound assumes
	gsrc.Start(n.Engine(), func(p *packet.Packet) { g.Inject(p) })

	// Cross traffic: 6 predicted flows at the same statistics.
	for i := 0; i < 6; i++ {
		id := uint32(10 + i)
		f, err := n.RequestPredictedClass(id, []string{"S1", "S2"}, 0,
			PredictedSpec{TokenRate: A * 1000, BucketBits: 50000, Delay: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := source.NewMarkov(source.MarkovConfig{
			FlowID: id, SizeBits: 1000, PeakRate: 2 * A, AvgRate: A, Burst: 5,
			RNG: sim.DeriveRNG(n.Config().Seed, f.Path()[0]+string(rune('a'+i))),
		})
		src.Start(n.Engine(), func(p *packet.Packet) { f.Inject(p) })
	}
	n.Run(120)
	if g.Delivered() < 5000 {
		t.Fatalf("only %d guaranteed packets delivered", g.Delivered())
	}
	// b/r for (P, 1 packet) is 1000/(170000) ≈ 5.9ms; add the PGPS
	// one-max-packet-per-hop packetization slack our bound formula
	// reserves for multi-hop... single hop: bound = b/r. Measured max
	// queueing must be under bound + one packet time at the link.
	bound := g.Bound() + 1000/1e6
	if max := g.Meter().Max(); max > bound+1e-9 {
		t.Fatalf("guaranteed max queueing %.4f exceeds P-G bound %.4f", max, bound)
	}
}

func TestPredictedEdgePolicingDrops(t *testing.T) {
	n := twoSwitch(Config{Seed: 1})
	f, err := n.RequestPredictedClass(1, []string{"S1", "S2"}, 0,
		PredictedSpec{TokenRate: 85000, BucketBits: 50000, Delay: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := source.NewMarkov(source.MarkovConfig{
		FlowID: 1, SizeBits: 1000, PeakRate: 170, AvgRate: 85, Burst: 5,
		RNG: sim.DeriveRNG(n.Config().Seed, "m"),
	})
	src.Start(n.Engine(), func(p *packet.Packet) { f.Inject(p) })
	n.Run(600)
	st := f.PolicerStats()
	if st.Total == 0 {
		t.Fatal("no packets")
	}
	dr := st.DropRate()
	// The paper's (A, 50) filter drops ~2%.
	if dr < 0.002 || dr > 0.08 {
		t.Fatalf("edge policing drop rate = %.4f, want ~0.02", dr)
	}
	if f.Delivered() != st.Total-st.Dropped {
		t.Fatalf("delivered %d, want %d", f.Delivered(), st.Total-st.Dropped)
	}
}

func TestPredictedClassSelectionByDelay(t *testing.T) {
	// Default targets: class 0 = 32 ms/switch, class 1 = 320 ms/switch.
	n := New(Config{})
	n.AddSwitch("S1")
	n.AddSwitch("S2")
	n.AddSwitch("S3")
	n.Connect("S1", "S2")
	n.Connect("S2", "S3")
	path := []string{"S1", "S2", "S3"}
	// 2 hops: advertised bounds 64 ms (class 0), 640 ms (class 1).
	// A client needing 100 ms must land in class 0 (class 1's 640 ms
	// advertised bound is too weak).
	f, err := n.RequestPredicted(1, path, PredictedSpec{TokenRate: 1e5, BucketBits: 1e4, Delay: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Priority != 0 {
		t.Fatalf("Priority = %d, want 0", f.Priority)
	}
	// A tolerant client (1 s) lands in the cheaper class 1.
	f2, err := n.RequestPredicted(2, path, PredictedSpec{TokenRate: 1e5, BucketBits: 1e4, Delay: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if f2.Priority != 1 {
		t.Fatalf("Priority = %d, want 1", f2.Priority)
	}
	// An impossible target is rejected.
	if _, err := n.RequestPredicted(3, path, PredictedSpec{TokenRate: 1e5, BucketBits: 1e4, Delay: 0.01}); err == nil {
		t.Fatal("impossible delay target accepted")
	}
	// Advertised bound is the sum of per-switch targets.
	if got := f.Bound(); math.Abs(got-0.064) > 1e-12 {
		t.Fatalf("advertised bound = %v, want 0.064", got)
	}
}

func TestAdmissionControlEndToEnd(t *testing.T) {
	// With admission control on, an unloaded link accepts a first flow
	// and rejects a pile-up of declared rates.
	n := twoSwitch(Config{AdmissionControl: true, Profile: sched.Profile{ClassTargets: []float64{0.1, 1.0}}})
	accepted := 0
	for i := 0; i < 10; i++ {
		_, err := n.RequestGuaranteed(uint32(1+i), []string{"S1", "S2"}, GuaranteedSpec{ClockRate: 2e5})
		if err == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted >= 10 {
		t.Fatalf("accepted %d, want some but not all", accepted)
	}
}

func TestDatagramFlowBound(t *testing.T) {
	n := twoSwitch(Config{})
	f, err := n.AddDatagramFlow(1, []string{"S1", "S2"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Bound() >= 0 {
		t.Fatal("datagram flows have no bound")
	}
	if f.Class != packet.Datagram {
		t.Fatal("wrong class")
	}
}

func TestFlowTap(t *testing.T) {
	n := twoSwitch(Config{})
	f, err := n.AddDatagramFlow(1, []string{"S1", "S2"})
	if err != nil {
		t.Fatal(err)
	}
	taps := 0
	f.Tap(func(p *packet.Packet, q float64) { taps++ })
	f.Inject(&packet.Packet{Size: 1000, CreatedAt: 0})
	n.Run(1)
	if taps != 1 {
		t.Fatalf("tap called %d times, want 1", taps)
	}
	if n.Flow(1) != f {
		t.Fatal("Flow lookup failed")
	}
}

// TestObserversAppend: every hook is a list, so a second observer of a flow's
// registration, its deliveries or a port's transmissions never displaces the
// first, and observers run in the order they were added.
func TestObserversAppend(t *testing.T) {
	n := twoSwitch(Config{})
	var got []string
	note := func(s string) { got = append(got, s) }
	pt := n.pathPortsByID(internPath(t, n, []string{"S1", "S2"}))[0]
	pt.OnTransmit(func(*packet.Packet, float64) { note("tx1") })
	pt.OnTransmit(func(*packet.Packet, float64) { note("tx2") })
	n.OnFlow(func(f *Flow) {
		note("flow1")
		f.Tap(func(*packet.Packet, float64) { note("tap1") })
	})
	n.OnFlow(func(f *Flow) {
		note("flow2")
		f.Tap(func(*packet.Packet, float64) { note("tap2") })
	})
	f, err := n.AddDatagramFlow(1, []string{"S1", "S2"})
	if err != nil {
		t.Fatal(err)
	}
	f.Tap(func(*packet.Packet, float64) { note("tap3") })
	f.Inject(&packet.Packet{Size: 1000})
	n.Run(1)
	want := []string{"flow1", "flow2", "tx1", "tx2", "tap1", "tap2", "tap3"}
	if !slices.Equal(got, want) {
		t.Fatalf("observers fired %v, want %v", got, want)
	}
}

func TestConfigDefaults(t *testing.T) {
	n := New(Config{})
	cfg := n.Config()
	if cfg.LinkRate != 1e6 || cfg.Profile.Kind != sched.KindUnified ||
		cfg.BufferPackets != 200 || cfg.Profile.MaxPacketBits != 1000 ||
		cfg.Profile.DatagramQuota != 0.10 || len(cfg.Profile.ClassTargets) != 2 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	// Targets are widely spaced (order of magnitude).
	if cfg.Profile.ClassTargets[1] < 5*cfg.Profile.ClassTargets[0] {
		t.Fatalf("class targets not widely spaced: %v", cfg.Profile.ClassTargets)
	}
}

// TestInvalidProfilePanics: New validates the default profile once, so an
// unbuildable one is a bug at construction, not at the first link.
func TestInvalidProfilePanics(t *testing.T) {
	for _, p := range []sched.Profile{
		{ClassTargets: []float64{0.1, 0}},
		{Kind: "weird"},
		{DatagramQuota: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("profile %+v did not panic", p)
				}
			}()
			New(Config{Profile: p})
		}()
	}
}

func TestReleaseUnknownFlowIsNoop(t *testing.T) {
	n := twoSwitch(Config{})
	n.Release(42)
}

func TestRequestValidationErrors(t *testing.T) {
	n := twoSwitch(Config{})
	if _, err := n.RequestGuaranteed(1, []string{"S1", "S2"}, GuaranteedSpec{}); err == nil {
		t.Error("invalid guaranteed spec accepted")
	}
	if _, err := n.RequestGuaranteed(1, []string{"S1"}, GuaranteedSpec{ClockRate: 1e5}); err == nil {
		t.Error("linkless path accepted")
	}
	if _, err := n.RequestPredictedClass(1, []string{"S1", "S2"}, 9,
		PredictedSpec{TokenRate: 1, BucketBits: 1, Delay: 1}); err == nil {
		t.Error("out-of-range class accepted")
	}
}
