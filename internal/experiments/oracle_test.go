package experiments

import (
	"fmt"
	"testing"

	"ispn/internal/scenario"
)

// TestPaperCellsHoldInvariants compiles every generated Table 1, Table 2 and
// compare cell under the invariant oracle at each claim seed and requires it
// silent: the P-G bound on the reserving rows' guaranteed flows, port
// conservation on every kind (Stop-and-Go's held packets included), and no
// packet leaked after the post-horizon drain.
func TestPaperCellsHoldInvariants(t *testing.T) {
	type cell struct {
		name string
		w    world
	}
	var cells []cell
	// Table 1's WFQ and FIFO cells are compare's.
	for _, d := range []discipline{fifo, fifoPlus, wfq, vclock, edd, drr, stopAndGo} {
		cells = append(cells, cell{"single link, " + d.name, singleLink(10, d)})
	}
	for _, d := range []discipline{wfq, fifo, fifoPlus} {
		cells = append(cells, cell{"Figure-1 chain, " + d.name, figure1Chain(d)})
	}
	ForEach(len(cells)*len(claimSeeds), func(job int) {
		c, seed := cells[job/len(claimSeeds)], claimSeeds[job%len(claimSeeds)]
		where := fmt.Sprintf("%s, seed %d", c.name, seed)
		src := c.w.source(RunConfig{Duration: 30, Seed: seed})
		chk := compileCell("cell.ispn", src, scenario.Options{Check: true}).Run().Check
		if c.w.discs[0].guaranteed && chk.Deliveries == 0 {
			t.Errorf("%s: no guaranteed delivery was checked against its bound", where)
		}
		for _, v := range chk.Violations {
			t.Errorf("%s: %v", where, v)
		}
	})
}
