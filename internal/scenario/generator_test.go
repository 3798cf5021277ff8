package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// topoSignature renders the compiled topology as "from->to" lines for
// comparison.
func topoSignature(s *Sim) string {
	var b strings.Builder
	for _, nd := range s.Net.Topology().Nodes() {
		for _, pt := range nd.Ports() {
			fmt.Fprintln(&b, pt.Name())
		}
	}
	return b.String()
}

func TestStarGenerator(t *testing.T) {
	s := mustCompile(t, "st :: Star(leaves 3, rate 2Mbps, delay 1ms)", Options{})
	sig := topoSignature(s)
	for _, want := range []string{"st.leaf1->st.hub", "st.hub->st.leaf3"} {
		if !strings.Contains(sig, want) {
			t.Errorf("star lacks link %s:\n%s", want, sig)
		}
	}
	if n := len(s.Net.Topology().Nodes()); n != 4 {
		t.Errorf("star has %d switches, want 4", n)
	}
	if pt := s.Net.Topology().Node("st.hub").Port("st.leaf1"); pt.Bandwidth() != 2e6 {
		t.Errorf("star link rate = %v, want 2e6", pt.Bandwidth())
	}
}

func TestDumbbellGenerator(t *testing.T) {
	s := mustCompile(t, "db :: Dumbbell(left 2, right 3, access 10Mbps, bottleneck 1Mbps)", Options{})
	topo := s.Net.Topology()
	if n := len(topo.Nodes()); n != 7 {
		t.Errorf("dumbbell has %d switches, want 7", n)
	}
	if r := topo.Node("db.a").Port("db.b").Bandwidth(); r != 1e6 {
		t.Errorf("bottleneck rate = %v, want 1e6", r)
	}
	if r := topo.Node("db.l1").Port("db.a").Bandwidth(); r != 10e6 {
		t.Errorf("access rate = %v, want 10e6", r)
	}
}

func TestParkingLotGenerator(t *testing.T) {
	s := mustCompile(t, "lot :: ParkingLot(hops 4)", Options{})
	sig := topoSignature(s)
	if !strings.Contains(sig, "lot.s4->lot.s5") || !strings.Contains(sig, "lot.s5->lot.s4") {
		t.Errorf("parking lot missing chain links:\n%s", sig)
	}
	if n := len(s.Net.Topology().Nodes()); n != 5 {
		t.Errorf("parking lot has %d switches, want 5", n)
	}
}

func TestRandomGeneratorSeededAndConnected(t *testing.T) {
	src := "mesh :: Random(nodes 10, degree 4)"
	a := topoSignature(mustCompile(t, src, Options{}))
	b := topoSignature(mustCompile(t, src, Options{}))
	if a != b {
		t.Errorf("same seed produced different random topologies:\n%s\n---\n%s", a, b)
	}
	seed := int64(77)
	c := topoSignature(mustCompile(t, src, Options{Seed: &seed}))
	if a == c {
		t.Error("different seeds produced the same chords (possible, but wildly unlikely)")
	}
	// The ring must exist regardless of seed.
	for _, sig := range []string{a, c} {
		if !strings.Contains(sig, "mesh.n10->mesh.n1") {
			t.Errorf("random topology lacks its ring:\n%s", sig)
		}
	}
	// Mean degree should be near the target: n*degree/2 = 20 edges = 40 ports.
	if got := strings.Count(a, "\n"); got < 30 || got > 40 {
		t.Errorf("random mesh has %d directed links, want ~40", got)
	}
}

func TestGeneratorArgValidation(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"s :: Star(leaves 0)", "at least one leaf"},
		{"d :: Dumbbell(left 0)", "at least one switch on each side"},
		{"p :: ParkingLot(hops 0)", "at least one hop"},
		{"r :: Random(nodes 2)", "at least 3 nodes"},
		{"r :: Random(nodes 5, degree 1)", "degree >= 2"},
		{"a, b :: Star(leaves 2)", "exactly one name"},
	}
	for _, tc := range cases {
		if _, err := compileSrc(t, tc.src, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("compile(%q) error = %v, want substring %q", tc.src, err, tc.want)
		}
	}
}
