package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentsMatchGolden pins every catalogue entry's formatted output
// byte for byte at Duration 30, Seed 7. The files under testdata/golden are
// what `ispnsim -horizon 30 -seed 7 <name>` prints with the wall-clock
// footer removed; `make experiments-golden` regenerates them after an
// intended behaviour change.
func TestExperimentsMatchGolden(t *testing.T) {
	cfg := RunConfig{Duration: 30, Seed: 7}
	for _, e := range Catalogue {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", e.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			// The CLI prints the text with Println.
			if got := e.Run(cfg) + "\n"; got != string(want) {
				t.Errorf("%s output differs from golden file\n--- got ---\n%s--- want ---\n%s", e.Name, got, want)
			}
		})
	}
}
