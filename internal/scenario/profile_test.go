package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ispn/internal/sched"
)

// TestLinkProfileDiagnostics asserts that malformed Net(...) and Link(...)
// scheduling profile arguments are rejected with the exact file:line:col of
// the offending token — wrong unit dimensions, unknown discipline names, and
// targets/classes mismatches included.
func TestLinkProfileDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		src  string
		// wantPos is the exact "line:col" of the diagnostic; wantText a
		// substring of its message.
		wantPos  string
		wantText string
	}{
		{
			name: "unknown discipline",
			src: `a, b :: Switch
a -> b :: Link(sched weird)`,
			wantPos:  "2:22",
			wantText: "must be one of: drr, edd, fifo, fifoplus, stopandgo, unified, virtualclock, wfq",
		},
		{
			name: "quota wrong dimension",
			src: `a, b :: Switch
a -> b :: Link(quota 10ms)`,
			wantPos:  "2:22",
			wantText: `argument "quota" must be a fraction`,
		},
		{
			name: "targets wrong dimension",
			src: `a, b :: Switch
a -> b :: Link(targets [32kbit, 320ms])`,
			wantPos:  "2:25",
			wantText: `argument "targets" must be a duration`,
		},
		{
			name: "unknown sharing",
			src: `a, b :: Switch
a -> b :: Link(sharing lifo)`,
			wantPos:  "2:24",
			wantText: "must be one of: fifoplus, fifo, rr",
		},
		{
			name: "quota out of range",
			src: `a, b :: Switch
a -> b :: Link(quota 150%)`,
			wantPos:  "2:22",
			wantText: "quota must be a fraction in [0, 1)",
		},
		{
			name: "zero target",
			src: `a, b :: Switch
a -> b :: Link(targets [0ms, 320ms])`,
			wantPos:  "2:24",
			wantText: "targets must be positive delays",
		},
		{
			name: "profile args on event link",
			src: `a, b :: Switch
a -> b
r :: Run(horizon 10s)
d :: Datagram(path a -> b)
c :: CBR(rate 10pps)
c -> d
at 2s { a -> b :: Link(sched nope) }`,
			wantPos:  "7:30",
			wantText: "must be one of: drr, edd, fifo, fifoplus, stopandgo, unified, virtualclock, wfq",
		},
		// Net reads its profile arguments through the same parser as Link.
		{
			name: "Net zero target",
			src: `n :: Net(targets [0ms])
a, b :: Switch
a -> b`,
			wantPos:  "1:18",
			wantText: "targets must be positive delays",
		},
		{
			name:     "Net zero target without links",
			src:      `n :: Net(targets [0ms])`,
			wantPos:  "1:18",
			wantText: "targets must be positive delays",
		},
		{
			name:     "Net targets classes mismatch",
			src:      `n :: Net(classes 3, targets [1ms, 2ms])`,
			wantPos:  "1:29",
			wantText: "targets lists 2 delays but classes is 3",
		},
		{
			name:     "Net classes without targets",
			src:      `n :: Net(classes 3)`,
			wantPos:  "1:18",
			wantText: "classes needs a matching targets list: classes is 3, the profile has 2 targets",
		},
	}
	for _, tc := range cases {
		_, err := compileSrc(t, tc.src, Options{})
		if err == nil {
			t.Errorf("%s: compile succeeded, want error", tc.name)
			continue
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "test.ispn:"+tc.wantPos+":") {
			t.Errorf("%s: error %q, want position test.ispn:%s:", tc.name, msg, tc.wantPos)
		}
		if !strings.Contains(msg, tc.wantText) {
			t.Errorf("%s: error = %q, want substring %q", tc.name, msg, tc.wantText)
		}
	}
}

// TestLinkProfileCompile builds a heterogeneous path — a WFQ core between a
// unified/FIFO edge and a FIFO+-only hop — and checks the per-port profiles
// landed where the file put them.
func TestLinkProfileCompile(t *testing.T) {
	src := `
a, b, c, d :: Switch
a -> b :: Link(sharing fifo)
b -> c :: Link(rate 1Mbps, sched wfq, quota 0%)
c -> d :: Link(sched fifoplus)
f :: Datagram(path a -> b -> c -> d)
s :: CBR(rate 50pps)
s -> f
r :: Run(horizon 2s)`
	s, err := compileSrc(t, src, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prof := func(from, to string) sched.Profile {
		p, err := s.Net.LinkProfile(from, to)
		if err != nil {
			t.Fatalf("LinkProfile(%s,%s): %v", from, to, err)
		}
		return p
	}
	if p := prof("a", "b"); p.Kind != sched.KindUnified || p.Sharing != sched.SharingFIFO {
		t.Errorf("a->b profile = %+v, want unified/fifo", p)
	}
	if p := prof("b", "c"); p.Kind != sched.KindWFQ || p.Quota() != 0 {
		t.Errorf("b->c profile = %+v, want wfq with zero quota", p)
	}
	if p := prof("c", "d"); p.Kind != sched.KindFIFOPlus {
		t.Errorf("c->d profile = %+v, want fifoplus", p)
	}
	rep := s.Run()
	if rep.Flows[0].Delivered == 0 {
		t.Error("heterogeneous path delivered nothing")
	}
	for _, l := range rep.Links {
		switch l.Name {
		case "a->b":
			if l.Sched != "unified/fifo" {
				t.Errorf("a->b sched column = %q, want unified/fifo", l.Sched)
			}
		case "b->c":
			if l.Sched != "wfq" {
				t.Errorf("b->c sched column = %q, want wfq", l.Sched)
			}
		}
	}
}

// TestLinkProfileSwapEvent upgrades a FIFO-sharing hop to FIFO+ mid-run via
// an at-block Link event and checks the swap took effect (merged over the
// current profile, traffic surviving).
func TestLinkProfileSwapEvent(t *testing.T) {
	src := `
a, b :: Switch
a -> b :: Link(sharing fifo, quota 5%)
f :: Predicted(rate 85kbps, delay 500ms, path a -> b)
m :: Markov(peak 170pps, avg 85pps)
m -> f
at 1s { a -> b :: Link(sharing fifoplus) }
r :: Run(horizon 3s)`
	s, err := compileSrc(t, src, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep := s.Run()
	if len(rep.Warnings) != 0 {
		t.Fatalf("profile swap warned: %v", rep.Warnings)
	}
	p, err := s.Net.LinkProfile("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Sharing != sched.SharingFIFOPlus {
		t.Errorf("post-swap sharing = %v, want fifoplus", p.Sharing)
	}
	// renew-style merge: the 5% quota set at link creation must survive
	// the sharing-only swap.
	if p.DatagramQuota != 0.05 {
		t.Errorf("post-swap quota = %v, want the original 0.05", p.DatagramQuota)
	}
	if rep.Flows[0].Delivered == 0 {
		t.Error("no traffic after the profile swap")
	}
}

// TestGuaranteedRefusedAcrossFIFOHop: an incrementally deployed network
// refuses guaranteed service across hops that cannot reserve clock rates.
func TestGuaranteedRefusedAcrossFIFOHop(t *testing.T) {
	src := `
a, b, c :: Switch
a -> b
b -> c :: Link(sched fifo)
g :: Guaranteed(rate 100kbps, path a -> b -> c)
s :: CBR(rate 10pps)
s -> g`
	_, err := compileSrc(t, src, Options{})
	if err == nil || !strings.Contains(err.Error(), "cannot reserve a clock rate") {
		t.Fatalf("guaranteed across a FIFO hop: err = %v, want reservation refusal", err)
	}
}

// TestRelatedWorkKinds compiles the two related-work pipeline kinds, whose one
// per-hop parameter is the first class target (Delay-EDD's local budget,
// Stop-and-Go's frame), runs predicted traffic through each, and checks that
// a guaranteed flow across either is refused with the link named.
func TestRelatedWorkKinds(t *testing.T) {
	for _, tc := range []struct {
		link, kind string
		target     float64
	}{
		{"sched edd, targets [30ms]", sched.KindEDD, 0.030},
		{"sched stopandgo, targets [10ms]", sched.KindStopAndGo, 0.010},
	} {
		src := `
a, b :: Switch
a -> b :: Link(` + tc.link + `)
f :: Predicted(rate 85kbps, path a -> b)
m :: Markov(peak 170pps, avg 85pps)
m -> f
r :: Run(horizon 2s)`
		s, err := compileSrc(t, src, Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.kind, err)
		}
		if p, _ := s.Net.LinkProfile("a", "b"); p.Kind != tc.kind || p.ClassTargets[0] != tc.target {
			t.Errorf("%s: a->b profile = %+v, want kind %s with target %v", tc.kind, p, tc.kind, tc.target)
		}
		if rep := s.Run(); rep.Flows[0].Delivered == 0 {
			t.Errorf("%s: delivered nothing", tc.kind)
		}
		_, err = compileSrc(t, strings.Replace(src, "Predicted", "Guaranteed", 1), Options{})
		if want := "link a->b runs a " + tc.kind + " pipeline and cannot reserve a clock rate"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: guaranteed flow: err = %v, want %q", tc.kind, err, want)
		}
	}
}

// TestStopAndGoAdvertisesTwoFrames runs admitted predicted flows across a
// Stop-and-Go link under the invariant oracle. A packet waits out the rest of
// its arrival frame and then queues behind the frame's other arrivals, so the
// hop's delay runs past one frame T but stays within 2T: the advertised bound
// must be 2T, and the oracle must find every delivery inside it.
func TestStopAndGoAdvertisesTwoFrames(t *testing.T) {
	var b strings.Builder
	b.WriteString(`net :: Net(rate 1Mbps, admission on)
a, b :: Switch
a -> b :: Link(sched stopandgo, targets [10ms])
run :: Run(seed 3, horizon 10s)
`)
	for i := range 14 {
		fmt.Fprintf(&b, "f%d :: Predicted(rate 55kbps, bucket 2kbit, path a -> b)\nc%d :: Poisson(rate 50pps)\nc%d -> f%d\n", i, i, i, i)
	}
	s := mustCompile(t, b.String(), Options{Check: true})
	for _, f := range s.Flows {
		if got := f.Flow.Bound(); got != 0.020 {
			t.Fatalf("%s advertised %v, want two 10 ms frames", f.Name, got)
		}
	}
	rep := s.Run()
	worst := 0.0
	for _, f := range s.Flows {
		worst = max(worst, f.Flow.Meter().Max())
	}
	if worst <= 0.011 {
		t.Fatalf("worst queueing %.2f ms never passed one frame plus a packet: the test proves nothing", worst*1e3)
	}
	if rep.Check == nil || rep.Check.Deliveries == 0 {
		t.Fatal("the oracle checked no delivery")
	}
	for _, v := range rep.Check.Violations {
		t.Error(v)
	}
}

// TestNetProfileIsDefaultLink: Net's targets and quota are the default
// Link(...). A plain link under Net(args) and Link(args) under a bare Net
// get the same port profile and print the same report.
func TestNetProfileIsDefaultLink(t *testing.T) {
	const body = `
a, b :: Switch
a -> b%s
g :: Guaranteed(rate 100kbps, path a -> b)
f :: Predicted(rate 85kbps, path a -> b)
d :: Datagram(path a -> b)
gs :: CBR(rate 90pps)
fs :: Markov(peak 170pps, avg 85pps)
ds :: Poisson(rate 700pps)
gs -> g
fs -> f
ds -> d
r :: Run(seed 5, horizon 3s)
`
	for _, args := range []string{
		"quota 25%",
		"targets [10ms, 100ms, 1s]",
		"targets [50ms], quota 0%",
	} {
		viaNet := mustCompile(t, "n :: Net("+args+")"+fmt.Sprintf(body, ""), Options{})
		viaLink := mustCompile(t, "n :: Net"+fmt.Sprintf(body, " :: Link("+args+")"), Options{})
		pt := func(s *Sim) sched.Profile { return s.Net.Topology().Node("a").Port("b").Pipeline().Profile() }
		if p, q := pt(viaNet), pt(viaLink); !reflect.DeepEqual(p, q) {
			t.Errorf("%s: Net profile %+v, Link profile %+v", args, p, q)
		}
		if a, b := viaNet.Run().Format(), viaLink.Run().Format(); a != b {
			t.Errorf("%s: reports differ: %s", args, firstDiff(a, b))
		}
	}
}
