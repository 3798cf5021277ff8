package scenario

import (
	"strings"
	"testing"
)

func compileSrc(t *testing.T, src string, opts Options) (*Sim, error) {
	t.Helper()
	f, err := Parse("test.ispn", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return Compile(f, opts)
}

func mustCompile(t *testing.T, src string, opts Options) *Sim {
	t.Helper()
	s, err := compileSrc(t, src, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return s
}

const tinyScenario = `
net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms])
run :: Run(seed 11, horizon 5s, percentiles [50%, 99%])
A, B :: Switch
A -> B
f :: Predicted(rate 85kbps, bucket 50kbit, delay 32ms, loss 1%, path A -> B)
m :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit)
m -> f
`

func TestCompileAndRunTiny(t *testing.T) {
	s := mustCompile(t, tinyScenario, Options{})
	if s.Seed != 11 || s.Horizon != 5 {
		t.Errorf("knobs = seed %d horizon %v, want 11/5", s.Seed, s.Horizon)
	}
	if len(s.Flows) != 1 || s.Flows[0].Name != "f" {
		t.Fatalf("flows = %+v", s.Flows)
	}
	rep := s.Run()
	if rep.Flows[0].Delivered == 0 {
		t.Error("no packets delivered")
	}
	if got := len(rep.Flows[0].PctMS); got != 2 {
		t.Errorf("got %d percentile columns, want 2", got)
	}
	if rep2 := s.Run(); rep2 != rep {
		t.Error("second Run did not return the cached report")
	}
	if !strings.Contains(rep.Format(), "p99") {
		t.Errorf("Format lacks percentile header:\n%s", rep.Format())
	}
}

func TestCompileDeterministic(t *testing.T) {
	a := mustCompile(t, tinyScenario, Options{}).Run()
	b := mustCompile(t, tinyScenario, Options{}).Run()
	if a.Format() != b.Format() {
		t.Errorf("two runs differ:\n%s\n---\n%s", a.Format(), b.Format())
	}
}

func TestCompileOptionsOverride(t *testing.T) {
	seed, zero := int64(99), int64(0)
	s := mustCompile(t, tinyScenario, Options{Seed: &seed, Horizon: 2})
	if s.Seed != 99 || s.Horizon != 2 {
		t.Errorf("override ignored: seed %d horizon %v", s.Seed, s.Horizon)
	}
	if s := mustCompile(t, tinyScenario, Options{Seed: &zero}); s.Seed != 0 {
		t.Errorf("seed 0 override ignored: seed %d", s.Seed)
	}
	base := mustCompile(t, tinyScenario, Options{Horizon: 2}).Run()
	reseeded := mustCompile(t, tinyScenario, Options{Seed: &seed, Horizon: 2}).Run()
	if base.Format() == reseeded.Format() {
		t.Error("different seeds produced identical runs")
	}
}

func TestCompileTokenBucketChain(t *testing.T) {
	s := mustCompile(t, `
run :: Run(seed 3, horizon 5s)
A, B :: Switch
A -> B
d :: Datagram(path A -> B)
hose :: Poisson(rate 2000pps, size 1000bit)
tb :: TokenBucket(rate 500pps, depth 10)
hose -> tb -> d
`, Options{})
	rep := s.Run()
	f := rep.Flows[0]
	if f.EdgeDropped == 0 {
		t.Error("token bucket dropped nothing for a 4x-over-rate source")
	}
	// 500 pkt/s through the bucket for 5 s, plus the depth.
	if f.Delivered > 2600 {
		t.Errorf("bucket leaked: %d delivered, want <= ~2510", f.Delivered)
	}
}

func TestCompileTCPReverseValidation(t *testing.T) {
	_, err := compileSrc(t, `
A, B :: Switch
A -> B
w :: TCP(path A -> B)
`, Options{})
	if err == nil || !strings.Contains(err.Error(), "reverse link") {
		t.Errorf("missing reverse link not diagnosed: %v", err)
	}
	s := mustCompile(t, `
run :: Run(horizon 5s)
A, B :: Switch
A <-> B
w :: TCP(path A -> B)
`, Options{})
	rep := s.Run()
	if rep.TCPs[0].Delivered == 0 {
		t.Error("TCP delivered nothing")
	}
	// A lone TCP on an idle 1 Mbit/s link should come close to line rate.
	if rep.TCPs[0].GoodputKbps < 900 {
		t.Errorf("goodput %v kbit/s, want near 1000", rep.TCPs[0].GoodputKbps)
	}
}

func TestCompileGuaranteedBound(t *testing.T) {
	s := mustCompile(t, `
run :: Run(horizon 5s)
A, B, C :: Switch
A -> B -> C
g :: Guaranteed(rate 100kbps, bucket 50kbit, path A -> B -> C)
src :: CBR(rate 100pps, size 1000bit)
src -> g
`, Options{})
	// b/r + (K-1)Lmax/r = 50000/100000 + 1*1000/100000 = 510 ms.
	if got := s.Flows[0].Flow.Bound(); got < 0.509 || got > 0.511 {
		t.Errorf("guaranteed bound = %v, want 0.510", got)
	}
	rep := s.Run()
	if rep.Flows[0].MaxMS > rep.Flows[0].BoundMS {
		t.Errorf("measured max %vms exceeds guaranteed bound %vms", rep.Flows[0].MaxMS, rep.Flows[0].BoundMS)
	}
}

// TestCompileErrors asserts validator diagnostics carry position and a
// useful message.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantText string
		wantPos  string // "line:col"
	}{
		{"unknown kind", "x :: Widget", "unknown element kind", "1:6"},
		{"duplicate name", "a :: Switch\na :: Switch", "already declared", "2:1"},
		{"duplicate net", "n1 :: Net\nn2 :: Net", "duplicate Net", "2:7"},
		{"unknown arg", "n :: Net(speed 1Mbps)", `no argument "speed"`, "1:10"},
		{"wrong dimension", "n :: Net(rate 5s)", "must be a bit rate", "1:15"},
		{"unknown switch in link", "a :: Switch\na -> b", `unknown name "b"`, "2:6"},
		{"duplicate link", "a, b :: Switch\na -> b\na -> b", "duplicate link", "3:1"},
		{"path without link", "a, b :: Switch\nf :: Datagram(path a -> b)", "needs a link", "2:20"},
		{"missing path", "a, b :: Switch\na -> b\nf :: Datagram", `requires a "path"`, "3:6"},
		{"unattached source", tinyScenario + "\nlonely :: CBR(rate 5pps)", "never attached", "10:1"},
		{"source reuse", tinyScenario + `
g :: Datagram(path A -> B)
m -> g`, "already attached", "11:1"},
		{"flow as chain head", tinyScenario + "\nf -> f", "not a traffic source", "10:1"},
		{"class out of range", `
a, b :: Switch
a -> b
f :: Predicted(rate 85kbps, bucket 50kbit, class 7, path a -> b)`, "rejected", "4:6"},
		{"percentile range", "r :: Run(percentiles [200%])", "must be in", "1:23"},
		{"bad sharing", "a, b :: Switch\na -> b :: Link(sharing lifo)", "one of: fifoplus, fifo, rr", "2:24"},
		{"targets mismatch", "n :: Net(classes 3, targets [32ms])", "lists 1 delays but classes is 3", "1:29"},
		{"quota out of range", "n :: Net(quota 150%)", "must be a fraction in [0, 1)", "1:16"},
		{"explicit zero buffer", "n :: Net(buffer 0)", "must be positive (omit the argument", "1:17"},
		{"duplicate named arg", "a, b :: Switch\na -> b\nd :: Datagram(path a -> b)\ns :: CBR(rate 10pps, rate 9pps)\ns -> d", "given twice", "4:22"},
		{"switch argument", "a :: Switch(shard 1)", `Switch has no argument "shard" (accepted: none)`, "1:13"},
		// A count from 2^53 on is refused at its value, not wrapped; 2^53 + 1
		// reads as 2^53.
		{"buffer above 2^53", "n :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], buffer 99999999999999999999)", `argument "buffer" must be below 2^53, got 1e+20`, "1:63"},
		{"classes above 2^53", "n :: Net(classes 99999999999999999999)", `argument "classes" must be below 2^53`, "1:18"},
		{"burst above 2^53", "a, b :: Switch\na -> b\nd :: Datagram(path a -> b)\nm :: Markov(peak 170pps, avg 85pps, burst 99999999999999999999)\nm -> d", `argument "burst" must be below 2^53`, "4:43"},
		{"seed above 2^53", "r :: Run(seed 9007199254740993)", `argument "seed" must be below 2^53, got 9.007199254740992e+15`, "1:15"},
		{"TCP arriving mid-run", "A, B :: Switch\nA <-> B\nat 1s { w :: TCP(path A -> B) }", "TCP cannot be declared inside an at block", "3:14"},
	}
	for _, tc := range cases {
		_, err := compileSrc(t, tc.src, Options{})
		if err == nil {
			t.Errorf("%s: compile succeeded, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantText) {
			t.Errorf("%s: error = %q, want substring %q", tc.name, err.Error(), tc.wantText)
		}
		if !strings.HasPrefix(err.Error(), "test.ispn:"+tc.wantPos+":") {
			t.Errorf("%s: error %q lacks file:line:col prefix test.ispn:%s:", tc.name, err.Error(), tc.wantPos)
		}
	}
}

// TestExplicitZeroQuota: quota 0 is expressible (no datagram reservation) —
// a guaranteed reservation beyond 90% of the link must be admitted.
func TestExplicitZeroQuota(t *testing.T) {
	src := `
n :: Net(quota 0%)
A, B :: Switch
A -> B
g :: Guaranteed(rate 950kbps, path A -> B)
c :: CBR(rate 10pps)
c -> g`
	s, err := compileSrc(t, src, Options{Horizon: 1})
	if err != nil {
		t.Fatalf("zero-quota scenario rejected: %v", err)
	}
	if got := s.Net.Config().DatagramQuota; got >= 0 {
		t.Errorf("DatagramQuota = %v, want the NoDatagramQuota sentinel", got)
	}
}

func TestCompileSharingModes(t *testing.T) {
	for _, mode := range []string{"fifoplus", "fifo", "rr"} {
		src := strings.Replace(tinyScenario, "\nA -> B\n", "\nA -> B :: Link(sharing "+mode+")\n", 1)
		if rep := mustCompile(t, src, Options{}).Run(); rep.Flows[0].Delivered == 0 {
			t.Errorf("sharing %s: no packets delivered", mode)
		}
	}
}
