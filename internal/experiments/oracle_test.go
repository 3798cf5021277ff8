package experiments

import (
	"fmt"
	"testing"

	"ispn/internal/invariant"
	"ispn/internal/scenario"
)

// TestPaperCellsHoldInvariants compiles every generated Table 1, Table 2 and
// compare cell, Table 3's, playback's and admission's measurement cell under
// the invariant oracle at each claim seed and requires it silent: the P-G
// bound on every guaranteed flow, the class target on every predicted flow
// admitted by §9 control, port conservation on every kind (Stop-and-Go's held
// packets included), and no packet leaked after the post-horizon drain.
//
// One exception is known and tolerated: Table 3's Guaranteed-Peak flows
// (b = one packet) cross the packetised P-G bound, because WFQ's virtual time
// counts real rather than fluid backlog. ROADMAP item 2 fixes that and then
// drops the exception.
func TestPaperCellsHoldInvariants(t *testing.T) {
	type cell struct {
		name      string
		source    func(RunConfig) string
		checked   bool     // some delivery must be checked against its bound
		tolerated []uint32 // flows whose pg-bound violations are item 2's defect
	}
	var cells []cell
	// Table 1's WFQ and FIFO cells are compare's.
	for _, d := range []discipline{fifo, fifoPlus, wfq, vclock, edd, drr, stopAndGo} {
		cells = append(cells, cell{name: "single link, " + d.name, source: singleLink(10, d).source, checked: d.guaranteed})
	}
	for _, d := range []discipline{wfq, fifo, fifoPlus} {
		cells = append(cells, cell{name: "Figure-1 chain, " + d.name, source: figure1Chain(d).source, checked: d.guaranteed})
	}
	var peak []uint32
	assignment := Table3Assignment()
	for _, f := range Figure1Flows() {
		if assignment[f.ID] == GuaranteedPeak {
			peak = append(peak, f.ID)
		}
	}
	cells = append(cells,
		cell{name: "Table 3", source: table3Source, checked: true, tolerated: peak},
		cell{name: "playback", source: playbackSource},
		cell{name: "admission, measurement", source: func(cfg RunConfig) string {
			return admissionSource(cfg, 150, "measurement")
		}, checked: true})
	ForEach(len(cells)*len(claimSeeds), func(job int) {
		c, seed := cells[job/len(claimSeeds)], claimSeeds[job%len(claimSeeds)]
		where := fmt.Sprintf("%s, seed %d", c.name, seed)
		f, err := scenario.Parse("cell.ispn", []byte(c.source(RunConfig{Duration: 30, Seed: seed})))
		if err != nil {
			t.Errorf("%s: %v", where, err)
			return
		}
		s, err := scenario.Compile(f, scenario.Options{Check: true})
		if err != nil {
			t.Errorf("%s: %v", where, err)
			return
		}
		chk := s.Run().Check
		if c.checked && chk.Deliveries == 0 {
			t.Errorf("%s: no delivery was checked against its bound", where)
		}
		tolerated := map[string]bool{}
		for _, id := range c.tolerated {
			tolerated[fmt.Sprintf("flow %d", cellFlow(s, id).ID)] = true
		}
		for _, v := range chk.Violations {
			if !(v.Checker == invariant.CheckPGBound && tolerated[v.Subject]) {
				t.Errorf("%s: %v", where, v)
			}
		}
	})
}
