package core

import (
	"fmt"
	"testing"

	"ispn/internal/sched"
)

// TestPortAllocationBudget gates what one unified port costs to build: its
// pipeline (sched.NewPipeline with the paper's default profile: WFQ around
// flow 0, two FIFO+ classes and datagram) and the whole ConnectWith, measured
// over the 256 links of the 64-node chordal ring the churn workload runs on.
// When the pipeline was a tree of separately allocated schedulers, queues
// and meters and every port an object of its own, they cost 20 and 26
// objects; the budgets sit between that and what they cost held by value.
func TestPortAllocationBudget(t *testing.T) {
	const pipelineBudget, connectBudget = 2, 8
	const rate = 100e6
	pipe := testing.AllocsPerRun(100, func() {
		if _, err := sched.NewPipeline(sched.Profile{}, rate); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewPipeline: %v objects (budget %d)", pipe, pipelineBudget)
	if pipe > pipelineBudget {
		t.Errorf("sched.NewPipeline allocates %v objects, budget %d", pipe, pipelineBudget)
	}

	n := New(Config{LinkRate: rate, PropDelay: 0.001})
	names := make([]string, churnRingNodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
		n.AddSwitch(names[i])
	}
	var links [][2]string
	for i := range names {
		for _, j := range []int{(i + 1) % churnRingNodes, (i + churnRingChord) % churnRingNodes} {
			links = append(links, [2]string{names[i], names[j]}, [2]string{names[j], names[i]})
		}
	}
	next := 0
	conn := testing.AllocsPerRun(len(links)-1, func() {
		l := links[next]
		next++
		if _, err := n.ConnectWith(l[0], l[1], rate, 0.001, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ConnectWith: %v objects per unified port (budget %d)", conn, connectBudget)
	if conn > connectBudget {
		t.Errorf("ConnectWith allocates %v objects per unified port, budget %d", conn, connectBudget)
	}
}
