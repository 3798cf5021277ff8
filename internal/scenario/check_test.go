package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLibraryInvariantsClean runs every shipped scenario under the
// invariant oracle and requires a clean verdict.
func TestLibraryInvariantsClean(t *testing.T) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		t.Fatalf("scenario library missing: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ispn") {
			continue
		}
		path := filepath.Join(libraryDir, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			t.Parallel()
			r := load(t, parseLibrary(t, path), Options{Check: true}).Run()
			if r.Check == nil {
				t.Fatal("Check requested but report has no check section")
			}
			for _, v := range r.Check.Violations {
				t.Error(v)
			}
			// Deliveries may legitimately be zero (datagram/TCP-only
			// mixes, predicted service without admission), but the
			// per-port sweeps always run.
			if r.Check.Sweeps == 0 {
				t.Error("oracle never swept")
			}
		})
	}
}
