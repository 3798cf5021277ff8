package experiments

import (
	"strings"
	"testing"
)

func TestCompareDisciplines(t *testing.T) {
	rows := CompareDisciplines(RunConfig{Duration: 120, Seed: 9})
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]ComparisonRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// All work-conserving disciplines share the same mean (uniform
	// packets conserve total backlog).
	fifoMean := byName["FIFO"].Aggregate.Mean
	for _, name := range []string{"FIFO+", "WFQ", "VirtualClock", "Delay-EDD", "DRR"} {
		if d := byName[name].Aggregate.Mean - fifoMean; d > 0.5 || d < -0.5 {
			t.Errorf("%s mean %.2f deviates from FIFO %.2f", name, byName[name].Aggregate.Mean, fifoMean)
		}
	}
	// Stop-and-Go holds each packet to its frame's end: its mean sits
	// roughly one 10 ms frame above FIFO's.
	if sg := byName["Stop-and-Go"]; sg.Aggregate.Mean < fifoMean+4 {
		t.Errorf("Stop-and-Go mean %.2f not clearly above FIFO %.2f", sg.Aggregate.Mean, fifoMean)
	}
	// Single hop: FIFO+ degenerates to FIFO exactly, and Delay-EDD, with
	// one budget and a peak spacing no conforming source exceeds, stamps
	// every packet now + budget and so serves in FIFO order.
	for _, name := range []string{"FIFO+", "Delay-EDD"} {
		if byName[name].Aggregate != byName["FIFO"].Aggregate {
			t.Errorf("%s %+v != FIFO %+v at a single hop", name, byName[name].Aggregate, byName["FIFO"].Aggregate)
		}
	}
}

func TestFormatComparison(t *testing.T) {
	rows := CompareDisciplines(RunConfig{Duration: 15, Seed: 9})
	s := FormatComparison(rows)
	for _, frag := range []string{"Stop-and-Go", "Delay-EDD", "VirtualClock"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("missing %q in:\n%s", frag, s)
		}
	}
}
