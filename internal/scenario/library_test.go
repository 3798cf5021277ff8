package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// libraryDir is the shipped scenario library, relative to this package.
const libraryDir = "../../scenarios"

// TestLibraryMatchesGolden pins every shipped scenario's report byte for
// byte, run as written and again under the invariant oracle, and requires
// each file to open with a description comment block. The files under
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
			s := loadSharded(t, path, 0, Options{})
			if s.File.Description == "" {
				t.Error("library scenario has no description comment block")
			}
			// The CLI prints each report with Println.
			plain := s.Run().Format() + "\n"
			checked := loadSharded(t, path, 0, Options{Check: true}).Run().Format() + "\n"
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
