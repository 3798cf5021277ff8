package scenario

import (
	"strings"
	"testing"
)

// The declarative face of the reroute subsystem: Net(routing auto), the
// Reroute element, the reroute event verb, and the routing report section.

const failoverScenario = `
net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], routing auto)
run :: Run(seed 3, horizon 12s)
s1, s2, s3, b :: Switch
s1 -> s2 -> s3
s1 -> b -> s3

conf :: Predicted(rate 85kbps, bucket 50kbit, delay 1s, loss 1%, path s1 -> s2 -> s3)
cam :: CBR(rate 85pps, size 1000bit)
cam -> conf

at 4s { fail s1 -> s2 }
`

func TestScenarioAutoReroute(t *testing.T) {
	rep := runSrc(t, failoverScenario)
	if rep.Routing == nil {
		t.Fatal("routing-enabled scenario has no Routing totals")
	}
	if rep.Routing.Reroutes != 1 || rep.Routing.Refusals != 0 {
		t.Fatalf("routing totals %+v, want 1 reroute, 0 refusals", *rep.Routing)
	}
	f := rep.Flows[0]
	if f.Reroutes != 1 {
		t.Fatalf("flow reroutes = %d, want 1", f.Reroutes)
	}
	// ~85 pkt/s for 12 s with a brief failure transient: far more than
	// the ~340 packets a blackholed flow would stop at.
	if f.Delivered < 900 {
		t.Fatalf("rerouted flow delivered only %d packets", f.Delivered)
	}
	out := rep.Format()
	if !strings.Contains(out, "routing: 1 reroute(s), 0 refusal(s)") ||
		!strings.Contains(out, "conf: 1 reroute(s)") {
		t.Errorf("Format lacks routing section:\n%s", out)
	}
}

func TestScenarioNoRerouteBaselineBlackholes(t *testing.T) {
	src := strings.Replace(failoverScenario, ", routing auto", "", 1)
	rep := runSrc(t, src)
	if rep.Routing != nil {
		t.Fatal("static scenario grew a Routing section")
	}
	// The flow blackholes from 4 s on: ~4 s of delivery only.
	if f := rep.Flows[0]; f.Delivered > 500 {
		t.Fatalf("baseline delivered %d packets across a failed link", f.Delivered)
	}
}

func TestScenarioRerouteElementAndVerb(t *testing.T) {
	rep := runSrc(t, `
net :: Net(rate 1Mbps, routing static)
run :: Run(seed 3, horizon 10s)
s1, s2, s3, b :: Switch
s1 -> s2 -> s3
s1 -> b -> s3
rr :: Reroute(cost delay)

d :: Datagram(path s1 -> s2 -> s3)
bg :: Poisson(rate 100pps, size 1000bit)
bg -> d

at 2s { fail s1 -> s2 }
at 3s { reroute s1 -> s2 }
at 5s { reroute s2 -> s3 }
`)
	if rep.Routing == nil {
		t.Fatal("Reroute element did not enable the routing section")
	}
	// routing static: the failure alone must not reroute; the explicit
	// verb at 3s does (and the 5s reroute of s2->s3 is a no-op, since the
	// flow already left that link).
	if rep.Routing.Reroutes != 1 {
		t.Fatalf("routing totals %+v, want exactly the scripted reroute", *rep.Routing)
	}
	if f := rep.Flows[0]; f.Delivered < 700 {
		t.Fatalf("flow delivered %d, want service restored by the scripted reroute", f.Delivered)
	}
}

func TestScenarioRerouteRefusalSurfaces(t *testing.T) {
	// No alternate path: the auto reroute is refused and counted.
	rep := runSrc(t, `
net :: Net(rate 1Mbps, routing auto)
run :: Run(seed 3, horizon 6s)
A, B :: Switch
A -> B
d :: Datagram(path A -> B)
bg :: Poisson(rate 50pps, size 1000bit)
bg -> d
at 2s { fail A -> B }
`)
	if rep.Routing == nil || rep.Routing.Refusals != 1 || rep.Routing.Reroutes != 0 {
		t.Fatalf("routing totals %+v, want 0 reroutes / 1 refusal", rep.Routing)
	}
	if f := rep.Flows[0]; f.RerouteRefusals != 1 {
		t.Fatalf("flow refusals = %d, want 1", f.RerouteRefusals)
	}
}

// Compile-time diagnostics for the new grammar.
func TestRoutingDiagnostics(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			"bad routing value",
			"net :: Net(routing sideways)\nA, B :: Switch\nA -> B",
			`"routing" must be one of: static, auto`,
		},
		{
			"bad policy",
			"rr :: Reroute(policy fastest)\nA, B :: Switch\nA -> B",
			`Reroute has no argument "policy" (accepted: cost)`,
		},
		{
			"bad cost",
			"rr :: Reroute(cost vibes)\nA, B :: Switch\nA -> B",
			`"cost" must be one of: hops, delay`,
		},
		{
			"unknown argument",
			"rr :: Reroute(k 9)\nA, B :: Switch\nA -> B",
			`Reroute has no argument "k"`,
		},
		{
			"duplicate element",
			"rr :: Reroute()\nr2 :: Reroute()\nA, B :: Switch\nA -> B",
			"duplicate Reroute declaration",
		},
		{
			"reroute verb without routing",
			"A, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nbg :: Poisson(rate 1pps)\nbg -> d\nat 1s { reroute A -> B }",
			"reroute needs routing enabled",
		},
		{
			"reroute of a non-flow",
			"net :: Net(routing auto)\nA, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nbg :: Poisson(rate 1pps)\nbg -> d\nat 1s { reroute bg -> d }",
			`"bg" is a Poisson, not a switch in a reroute`,
		},
		{
			"reroute of an unknown link",
			"net :: Net(routing auto)\nA, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nbg :: Poisson(rate 1pps)\nbg -> d\nat 1s { reroute B -> A }",
			"no link B -> A is declared",
		},
		{
			"Reroute inside an at block",
			"net :: Net(routing auto)\nA, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nbg :: Poisson(rate 1pps)\nbg -> d\nat 1s { rr :: Reroute() }",
			"Reroute cannot be declared inside an at block",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := compileSrc(t, c.src, Options{})
			if err == nil {
				t.Fatalf("compiled without error, want %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), c.want)
			}
		})
	}
}

// Same-timestamp fail + reroute (the verb in the same at block as the fail,
// and the auto rerouter racing a scripted one) must be deterministic: two
// identical runs produce byte-identical reports.
func TestSameTimestampFailRerouteDeterministic(t *testing.T) {
	src := `
net :: Net(rate 1Mbps, routing auto)
run :: Run(seed 9, horizon 8s)
s1, s2, s3, b :: Switch
s1 -> s2 -> s3
s1 -> b -> s3
d :: Datagram(path s1 -> s2 -> s3)
bg :: Poisson(rate 200pps, size 1000bit)
bg -> d
at 2s { fail s1 -> s2; reroute s1 -> s2 }
`
	a := runSrc(t, src).Format()
	b := runSrc(t, src).Format()
	if a != b {
		t.Fatalf("same-timestamp fail+reroute not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "routing:") {
		t.Fatalf("report lacks routing totals:\n%s", a)
	}
}
