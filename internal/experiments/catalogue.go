package experiments

import "fmt"

// Experiment is one named, runnable study: what `ispnsim <name>` prints.
type Experiment struct {
	Name    string
	Summary string
	// Run simulates under cfg and returns the formatted text.
	Run func(cfg RunConfig) string
	// Static marks an entry that simulates nothing (the Figure-1 diagram),
	// so a timing footer under it would be meaningless.
	Static bool
}

// Catalogue is the single registration point for experiments: the CLI's
// usage text, its dispatch, `ispnsim all` (which runs the entries in this
// order — paper order, then extensions) and the golden-output test all
// range over it.
var Catalogue = []Experiment{
	{Name: "figure1", Summary: "paper Figure 1: topology and flow layout", Static: true,
		Run: func(RunConfig) string {
			if err := ValidateFigure1(); err != nil {
				panic(err) // the layout is a constant of this package
			}
			return Figure1Diagram() + "\n\n22 flows: 12 x 1 hop, 4 x 2 hops, 4 x 3 hops, 2 x 4 hops;\n" +
				"every inter-switch link carries exactly 10 flows (validated)."
		}},
	{Name: "table1", Summary: "paper Table 1: WFQ vs FIFO on one link",
		Run: func(cfg RunConfig) string { return FormatTable1(Table1(cfg)) }},
	{Name: "table2", Summary: "paper Table 2: WFQ vs FIFO vs FIFO+ over 1-4 hops",
		Run: func(cfg RunConfig) string { return FormatTable2(Table2(cfg)) }},
	{Name: "table3", Summary: "paper Table 3: unified scheduler, all service classes",
		Run: func(cfg RunConfig) string { return FormatTable3(Table3(cfg)) }},
	{Name: "ablation-isolation", Summary: "Section 5: isolation vs sharing with one bursty flow",
		Run: func(cfg RunConfig) string { return FormatIsolation(AblationIsolation(cfg)) }},
	{Name: "ablation-hops", Summary: "Section 6: jitter growth with path length (1-8 hops)",
		Run: func(cfg RunConfig) string { return FormatHops(AblationHops(cfg, 8)) }},
	{Name: "admission", Summary: "Section 9: measurement-based vs worst-case admission",
		Run: func(cfg RunConfig) string { return FormatAdmission(AblationAdmission(cfg, 150)) }},
	{Name: "playback", Summary: "Sections 2-3: adaptive vs rigid play-back points",
		Run: func(cfg RunConfig) string { return FormatPlayback(AblationPlayback(cfg)) }},
	{Name: "discard", Summary: "Section 10: jitter-offset-driven late discard",
		Run: func(cfg RunConfig) string { return FormatDiscard(AblationDiscard(cfg, nil)) }},
	{Name: "compare", Summary: "extension: the full scheduling zoo on one workload",
		Run: func(cfg RunConfig) string { return FormatComparison(CompareDisciplines(cfg)) }},
	{Name: "sweep", Summary: "extension: delay vs utilization curve per discipline",
		Run: func(cfg RunConfig) string { return FormatSweep(SweepLoad(cfg, nil, nil), nil) }},
	{Name: "dist", Summary: "extension: full delay distributions (ASCII histogram)",
		Run: func(cfg RunConfig) string {
			var b string
			for _, d := range []Discipline{DiscWFQ, DiscFIFO} {
				b += fmt.Sprintf("aggregate delay distribution, %s (Table-1 workload):\n%s\n",
					d, DelayDistribution(d, cfg).Render(1000, "ms"))
			}
			return b
		}},
	{Name: "churn", Summary: "extension: dynamic call churn through admission control",
		Run: func(cfg RunConfig) string { return FormatChurn(ChurnStress(cfg)) }},
	{Name: "mixed", Summary: "extension: partial FIFO+ rollout over the Table-2 chain",
		Run: func(cfg RunConfig) string { return FormatMixed(MixedDeployment(cfg)) }},
	{Name: "failover", Summary: "extension: link failure with vs without failure-aware reroute",
		Run: func(cfg RunConfig) string { return FormatFailover(Failover(cfg)) }},
	{Name: "cache", Summary: "extension: route-cache eviction schemes under hot-spot churn",
		Run: func(cfg RunConfig) string { return FormatCacheShowdown(CacheShowdown(cfg)) }},
}
