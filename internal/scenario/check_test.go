package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLibraryInvariantsClean runs every shipped scenario under the
// invariant oracle, sequentially and with four engines, and requires a
// clean verdict from both plus identical check counts: the oracle's sweeps
// are control events, so a sharded run must check exactly what the
// sequential run checks.
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
			type leg struct {
				shards     int
				deliveries int64
				sweeps     int64
			}
			legs := []leg{{shards: 0}, {shards: 4}}
			for i := range legs {
				r := loadSharded(t, path, legs[i].shards, Options{Check: true}).Run()
				if r.Check == nil {
					t.Fatalf("shards=%d: Check requested but report has no check section", legs[i].shards)
				}
				for _, v := range r.Check.Violations {
					t.Errorf("shards=%d: %s", legs[i].shards, v)
				}
				// Deliveries may legitimately be zero (datagram/TCP-only
				// mixes, predicted service without admission), but the
				// per-port sweeps always run.
				if r.Check.Sweeps == 0 {
					t.Errorf("shards=%d: oracle never swept", legs[i].shards)
				}
				legs[i].deliveries = r.Check.Deliveries
				legs[i].sweeps = r.Check.Sweeps
			}
			if legs[0].deliveries != legs[1].deliveries || legs[0].sweeps != legs[1].sweeps {
				t.Errorf("sequential checked %d deliveries/%d sweeps, sharded %d/%d",
					legs[0].deliveries, legs[0].sweeps, legs[1].deliveries, legs[1].sweeps)
			}
		})
	}
}
