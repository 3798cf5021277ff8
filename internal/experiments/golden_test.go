package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenCases lists every CLI experiment with the formatted text `ispnsim
// <name>` prints for it (ablation-hops and admission at the CLI's 8 hops
// and 150 offered flows).
var goldenCases = []struct {
	name string
	run  func(RunConfig) string
}{
	{"figure1", func(RunConfig) string {
		return Figure1Diagram() + "\n\n22 flows: 12 x 1 hop, 4 x 2 hops, 4 x 3 hops, 2 x 4 hops;\n" +
			"every inter-switch link carries exactly 10 flows (validated)."
	}},
	{"table1", func(c RunConfig) string { return FormatTable1(Table1(c)) }},
	{"table2", func(c RunConfig) string { return FormatTable2(Table2(c)) }},
	{"table3", func(c RunConfig) string { return FormatTable3(Table3(c)) }},
	{"ablation-isolation", func(c RunConfig) string { return FormatIsolation(AblationIsolation(c)) }},
	{"ablation-hops", func(c RunConfig) string { return FormatHops(AblationHops(c, 8)) }},
	{"admission", func(c RunConfig) string { return FormatAdmission(AblationAdmission(c, 150)) }},
	{"playback", func(c RunConfig) string { return FormatPlayback(AblationPlayback(c)) }},
	{"discard", func(c RunConfig) string { return FormatDiscard(AblationDiscard(c, nil)) }},
	{"compare", func(c RunConfig) string { return FormatComparison(CompareDisciplines(c)) }},
	{"sweep", func(c RunConfig) string { return FormatSweep(SweepLoad(c, nil, nil), nil) }},
	{"dist", func(c RunConfig) string {
		var b string
		for _, d := range []Discipline{DiscWFQ, DiscFIFO} {
			b += fmt.Sprintf("aggregate delay distribution, %s (Table-1 workload):\n%s\n",
				d, DelayDistribution(d, c).Render(1000, "ms"))
		}
		return b
	}},
	{"churn", func(c RunConfig) string { return FormatChurn(ChurnStress(c)) }},
	{"mixed", func(c RunConfig) string { return FormatMixed(MixedDeployment(c)) }},
	{"failover", func(c RunConfig) string { return FormatFailover(Failover(c)) }},
	{"cache", func(c RunConfig) string { return FormatCacheShowdown(CacheShowdown(c)) }},
}

// TestExperimentsMatchGolden pins every experiment's formatted output byte
// for byte at Duration 30, Seed 7. The files under testdata/golden are what
// `ispnsim -duration 30 -seed 7 <name>` prints with the wall-clock footer
// removed; `make experiments-golden` regenerates them after an intended
// behaviour change.
func TestExperimentsMatchGolden(t *testing.T) {
	cfg := RunConfig{Duration: 30, Seed: 7}
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			// The CLI prints the text with Println.
			if got := c.run(cfg) + "\n"; got != string(want) {
				t.Errorf("%s output differs from golden file\n--- got ---\n%s--- want ---\n%s", c.name, got, want)
			}
		})
	}
}
