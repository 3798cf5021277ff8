package analysis

// Analyzers is the full ispnvet suite, in the order findings are attributed
// (docs/ANALYSIS.md is the catalog).
var Analyzers = []*Analyzer{
	KeyedEvents,
	MapRange,
	PoolOwnership,
	WallClock,
}
