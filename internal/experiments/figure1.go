// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus the ablation studies listed in DESIGN.md, all
// registered in Catalogue. Each runner generates its world as a .ispn cell,
// compiles it (compileCell), runs the simulator, and returns rows shaped like
// the paper's tables.
// Delays are reported in the paper's unit: one packet transmission time
// (1 ms for 1000-bit packets on 1 Mbit/s links).
//
// The package also hosts the parallel harness every multi-simulation
// workload shares: ForEach fans independent sub-simulations across a
// worker pool with bit-identical-to-sequential results, and
// RunScenarios/ListScenarios/CheckScenarios drive batches of declarative
// .ispn scenario files (internal/scenario) through it for the ispnsim
// run/check/scenarios CLI verbs.
package experiments

import "fmt"

// Paper simulation constants (Appendix).
const (
	LinkRate   = 1e6    // bits/s
	PacketBits = 1000   // bits
	AvgRate    = 85.0   // A, packets/s
	PeakFactor = 2.0    // P = 2A
	MeanBurst  = 5.0    // B
	BucketSize = 50.0   // tokens (packets) in the source (A, 50) filter
	UnitMS     = 1000.0 // seconds -> packet transmission times (1 ms)
)

// FlowPath describes one of the evaluation flows: its id and route.
type FlowPath struct {
	ID   uint32
	Path []string
}

// Hops returns the number of inter-switch links traversed.
func (f FlowPath) Hops() int { return len(f.Path) - 1 }

// Figure1Nodes returns the switches of the paper's Figure 1: a chain of five
// switches S1..S5 joined by four 1 Mbit/s links, each host hanging off one
// switch over an infinitely fast access link (modelled as direct injection).
func Figure1Nodes() []string { return []string{"S1", "S2", "S3", "S4", "S5"} }

// Figure1Links returns the four inter-switch links, in traffic direction.
func Figure1Links() [][2]string {
	return [][2]string{{"S1", "S2"}, {"S2", "S3"}, {"S3", "S4"}, {"S4", "S5"}}
}

// Figure1Diagram returns the ASCII rendition of Figure 1.
func Figure1Diagram() string {
	return `Host-1   Host-2   Host-3   Host-4   Host-5
  |        |        |        |        |
 S-1 ---- S-2 ---- S-3 ---- S-4 ---- S-5
      L1       L2       L3       L4
(all inter-switch links 1 Mbit/s; host links infinitely fast;
 all traffic flows left to right)`
}

// Flow ids, grouped by path length for readability. The layout satisfies the
// Appendix constraints exactly: 22 flows — 12 of path length one, 4 of length
// two, 4 of length three, 2 of length four — with every inter-switch link
// shared by exactly 10 flows.
const (
	// Length 4 (S1 -> S5).
	F401 uint32 = 401
	F402 uint32 = 402
	// Length 3.
	F301 uint32 = 301 // S1 -> S4
	F302 uint32 = 302 // S1 -> S4
	F303 uint32 = 303 // S2 -> S5
	F304 uint32 = 304 // S2 -> S5
	// Length 2.
	F201 uint32 = 201 // S1 -> S3
	F202 uint32 = 202 // S1 -> S3
	F203 uint32 = 203 // S3 -> S5
	F204 uint32 = 204 // S3 -> S5
	// Length 1.
	F101 uint32 = 101 // S1 -> S2
	F102 uint32 = 102 // S1 -> S2
	F103 uint32 = 103 // S1 -> S2
	F104 uint32 = 104 // S1 -> S2
	F105 uint32 = 105 // S2 -> S3
	F106 uint32 = 106 // S2 -> S3
	F107 uint32 = 107 // S3 -> S4
	F108 uint32 = 108 // S3 -> S4
	F109 uint32 = 109 // S4 -> S5
	F110 uint32 = 110 // S4 -> S5
	F111 uint32 = 111 // S4 -> S5
	F112 uint32 = 112 // S4 -> S5
)

// Figure1Flows returns the 22 evaluation flows.
func Figure1Flows() []FlowPath {
	return []FlowPath{
		{F401, []string{"S1", "S2", "S3", "S4", "S5"}},
		{F402, []string{"S1", "S2", "S3", "S4", "S5"}},
		{F301, []string{"S1", "S2", "S3", "S4"}},
		{F302, []string{"S1", "S2", "S3", "S4"}},
		{F303, []string{"S2", "S3", "S4", "S5"}},
		{F304, []string{"S2", "S3", "S4", "S5"}},
		{F201, []string{"S1", "S2", "S3"}},
		{F202, []string{"S1", "S2", "S3"}},
		{F203, []string{"S3", "S4", "S5"}},
		{F204, []string{"S3", "S4", "S5"}},
		{F101, []string{"S1", "S2"}},
		{F102, []string{"S1", "S2"}},
		{F103, []string{"S1", "S2"}},
		{F104, []string{"S1", "S2"}},
		{F105, []string{"S2", "S3"}},
		{F106, []string{"S2", "S3"}},
		{F107, []string{"S3", "S4"}},
		{F108, []string{"S3", "S4"}},
		{F109, []string{"S4", "S5"}},
		{F110, []string{"S4", "S5"}},
		{F111, []string{"S4", "S5"}},
		{F112, []string{"S4", "S5"}},
	}
}

// FlowsOnLink returns the flows of fs whose path crosses from->to.
func FlowsOnLink(fs []FlowPath, from, to string) []FlowPath {
	var out []FlowPath
	for _, f := range fs {
		for i := 0; i < len(f.Path)-1; i++ {
			if f.Path[i] == from && f.Path[i+1] == to {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// SingleLinkFlows returns the Table 1 workload: n identical flows crossing
// one link A -> B.
func SingleLinkFlows(n int) []FlowPath {
	fs := make([]FlowPath, n)
	for i := range fs {
		fs[i] = FlowPath{ID: uint32(1 + i), Path: []string{"A", "B"}}
	}
	return fs
}

// ValidateFigure1 sanity-checks the layout (used by tests and the figure1
// command): path-length census and 10 flows per link.
func ValidateFigure1() error {
	fs := Figure1Flows()
	byLen := map[int]int{}
	for _, f := range fs {
		byLen[f.Hops()]++
	}
	want := [...]int{1: 12, 2: 4, 3: 4, 4: 2}
	for l, w := range want {
		if byLen[l] != w {
			return fmt.Errorf("experiments: %d flows of length %d, want %d", byLen[l], l, w)
		}
	}
	for _, lk := range Figure1Links() {
		if n := len(FlowsOnLink(fs, lk[0], lk[1])); n != 10 {
			return fmt.Errorf("experiments: link %s->%s carries %d flows, want 10", lk[0], lk[1], n)
		}
	}
	return nil
}
