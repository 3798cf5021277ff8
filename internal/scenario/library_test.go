package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// libraryDir is the shipped scenario library, relative to this package.
const libraryDir = "../../scenarios"

// TestLibraryParsesAndSimulates is the round-trip check `make ci` relies
// on: every shipped .ispn file must parse, document itself, compile, and
// survive a (shortened) simulation that delivers traffic.
func TestLibraryParsesAndSimulates(t *testing.T) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		t.Fatalf("scenario library missing: %v", err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".ispn") {
			files = append(files, filepath.Join(libraryDir, e.Name()))
		}
	}
	if len(files) < 6 {
		t.Fatalf("library has %d scenarios, want >= 6", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			f, err := ParseFile(path)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if f.Description == "" {
				t.Error("library scenario has no description comment block")
			}
			s, err := Compile(f, Options{Horizon: 3})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep := s.Run()
			delivered := int64(0)
			for _, fr := range rep.Flows {
				delivered += fr.Delivered
			}
			for _, tr := range rep.TCPs {
				delivered += tr.Delivered
			}
			if delivered == 0 {
				t.Errorf("scenario delivered no traffic in 3 simulated seconds:\n%s", rep.Format())
			}
			if !strings.Contains(rep.Format(), "scenario "+f.Name) {
				t.Errorf("report header lacks scenario name:\n%s", rep.Format())
			}
		})
	}
}

// TestLibraryMatchesGolden pins every shipped scenario's report byte for
// byte, run as written and again under the invariant oracle. The files under
// testdata/library are what `ispnsim run` and `ispnsim -check run` print for
// each scenario, <name>.txt and <name>.check.txt, cut at the wall-clock
// footer; `make library-golden` regenerates them after an intended behaviour
// change. An optional section a scenario does not use stays out of its
// report, so the checked report is the plain one plus its invariants section.
func TestLibraryMatchesGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(libraryDir, "*.ispn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("scenario library missing: %v", err)
	}
	goldenDir := filepath.Join("testdata", "library")
	pinned := map[string]bool{}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".ispn")
		pinned[name+".txt"], pinned[name+".check.txt"] = true, true
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// The CLI prints each report with Println.
			plain := runReport(t, path, Options{}) + "\n"
			checked := runReport(t, path, Options{Check: true}) + "\n"
			for _, run := range []struct{ golden, got string }{{name + ".txt", plain}, {name + ".check.txt", checked}} {
				want, err := os.ReadFile(filepath.Join(goldenDir, run.golden))
				if err != nil {
					t.Fatal(err)
				}
				if run.got != string(want) {
					t.Errorf("report differs from %s: %s", run.golden, firstDiff(string(want), run.got))
				}
			}
			if rest, ok := strings.CutPrefix(checked, strings.TrimSuffix(plain, "\n")); !ok || !strings.HasPrefix(rest, "\ninvariants: ") {
				t.Errorf("checked report is not the plain one plus an invariants section: %s", firstDiff(plain, checked))
			}
		})
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !pinned[e.Name()] {
			t.Errorf("stale golden %s: no library scenario writes it", e.Name())
		}
	}
}

// TestLoad exercises the ParseFile+Compile convenience entry point.
func TestLoad(t *testing.T) {
	s, err := Load(filepath.Join(libraryDir, "dumbbell.ispn"), Options{Horizon: 2})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.FlowByName("conf") == nil {
		t.Error("dumbbell scenario lost its conf flow")
	}
	if s.FlowByName("nope") != nil {
		t.Error("FlowByName invented a flow")
	}
}
