package analysis_test

import (
	"strings"
	"testing"

	"ispn/internal/analysis"
)

func TestMapRange(t *testing.T) {
	checkFixtures(t, analysis.MapRange,
		"a/ispn/internal/core",
		"a/ispn/internal/metrics",
	)
}

func TestWallClock(t *testing.T) {
	checkFixtures(t, analysis.WallClock,
		"b/ispn/internal/core",
		"b/ispn/internal/serve",
	)
}

func TestKeyedEvents(t *testing.T) {
	checkFixtures(t, analysis.KeyedEvents,
		"c/ispn/internal/scenario",
		"c/ispn/internal/topology",
	)
}

func TestPoolOwnership(t *testing.T) {
	checkFixtures(t, analysis.PoolOwnership,
		"d/ispn/internal/sched",
	)
}

// TestAllowHygiene pins the escape hatch's own rules: an annotation without
// an analyzer name, naming an unknown analyzer, missing its justification,
// or suppressing nothing is a finding in its own right, while a justified
// annotation over a real violation silences exactly that violation.
func TestAllowHygiene(t *testing.T) {
	pkg := loadFixture(t, "hygiene/ispn/internal/core")
	diags, err := analysis.RunPackage(pkg, analysis.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"needs an analyzer name",
		`names unknown analyzer "nosuchcheck"`,
		"needs a justification",
		"stale ispnvet:allow maprange",
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wants), diags)
	}
	for i, want := range wants {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, want)
		}
		if diags[i].Analyzer != "ispnvet" {
			t.Errorf("diagnostic %d attributed to %q, want ispnvet", i, diags[i].Analyzer)
		}
	}
}

// TestSuiteIsCompleteAndSorted pins the suite contents: docs/ANALYSIS.md
// documents exactly these four, and //ispnvet:allow targets resolve against
// their names.
func TestSuiteIsCompleteAndSorted(t *testing.T) {
	want := []string{"keyedevents", "maprange", "poolownership", "wallclock"}
	if len(analysis.Analyzers) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(analysis.Analyzers), len(want))
	}
	for i, a := range analysis.Analyzers {
		if a.Name != want[i] {
			t.Errorf("Analyzers[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
	}
}
