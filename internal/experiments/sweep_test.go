package experiments

import (
	"strings"
	"testing"
)

func TestSweepLoadShape(t *testing.T) {
	pts := SweepLoad(RunConfig{Duration: 120, Seed: 5}, []int{4, 8, 10, 11})
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	// Utilization grows with flow count and tracks nf * 83.3/10.
	for i := 1; i < len(pts); i++ {
		if pts[i].Utilization <= pts[i-1].Utilization {
			t.Fatalf("utilization not increasing: %+v", pts)
		}
	}
	// Tail delay diverges with load for every discipline.
	for _, d := range []string{"FIFO", "WFQ", "FIFO+"} {
		if pts[3].P999[d] <= pts[0].P999[d] {
			t.Fatalf("%s p999 did not grow with load", d)
		}
	}
	// At light load the disciplines are indistinguishable...
	light := pts[0]
	if diff := light.P999["FIFO"] - light.P999["WFQ"]; diff > 2 || diff < -2 {
		t.Fatalf("light-load p999 differs: FIFO %.1f vs WFQ %.1f",
			light.P999["FIFO"], light.P999["WFQ"])
	}
	// ...and under overload FIFO's sharing clearly beats WFQ's isolation
	// (the paper's core Table-1 argument, amplified).
	heavy := pts[3]
	if heavy.P999["FIFO"] >= heavy.P999["WFQ"] {
		t.Fatalf("overload p999: FIFO %.1f should be below WFQ %.1f",
			heavy.P999["FIFO"], heavy.P999["WFQ"])
	}
	// Means are scheduler-invariant at every load level (uniform packet
	// size; total backlog conservation).
	for _, p := range pts {
		if d := p.Mean["FIFO"] - p.Mean["WFQ"]; d > 0.5 || d < -0.5 {
			t.Fatalf("means diverge at %d flows: %v", p.Flows, p.Mean)
		}
	}
}

func TestDelayDistribution(t *testing.T) {
	h := DelayDistribution(RunConfig{Duration: 60, Seed: 5})[1] // FIFO
	if h.Count() < 10000 {
		t.Fatalf("only %d samples", h.Count())
	}
	// The distribution mean should sit near the known ~3 ms and the
	// render must produce bars.
	if mean := h.Mean() * 1000; mean < 1 || mean > 10 {
		t.Fatalf("mean %v ms implausible", mean)
	}
	if !strings.Contains(h.Render(1000, "ms"), "#") {
		t.Fatal("render has no bars")
	}
}

func TestFormatSweep(t *testing.T) {
	pts := SweepLoad(RunConfig{Duration: 20, Seed: 5}, []int{4})
	s := FormatSweep(pts)
	if !strings.Contains(s, "FIFO") || !strings.Contains(s, "util") {
		t.Fatalf("FormatSweep: %s", s)
	}
}
