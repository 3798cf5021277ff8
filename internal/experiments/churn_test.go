package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// A short, heavy grid: thousands of simulated arrivals would take a while at
// the paper horizon, so the test shrinks the clock but keeps the structure.
func testChurnGrid(t *testing.T) []ChurnCell {
	t.Helper()
	return ChurnStressGrid(RunConfig{Duration: 30, Seed: 9}, []float64{1000, 250})
}

func TestChurnStress(t *testing.T) {
	cells := testChurnGrid(t)
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4 (2 loads x admission off/on)", len(cells))
	}
	for _, c := range cells {
		if c.Arrivals == 0 || c.Delivered == 0 {
			t.Fatalf("dead cell: %+v", c)
		}
		if !c.Admission && c.Rejected != 0 {
			t.Errorf("admission off but %d rejections (every %.0fms)", c.Rejected, c.EveryMS)
		}
		if c.Admitted+c.Rejected != c.Arrivals {
			t.Errorf("admitted %d + rejected %d != arrivals %d", c.Admitted, c.Rejected, c.Arrivals)
		}
	}
	// Overload with admission on must reject; the controlled bottleneck
	// keeps the aggregate call p99 below the uncontrolled one.
	var offHot, onHot ChurnCell
	for _, c := range cells {
		if c.EveryMS == 250 {
			if c.Admission {
				onHot = c
			} else {
				offHot = c
			}
		}
	}
	if onHot.Rejected == 0 {
		t.Error("overloaded cell with admission on rejected nothing")
	}
	if onHot.CallP99MS >= offHot.CallP99MS {
		t.Errorf("admission control did not improve call p99: on %.2fms vs off %.2fms",
			onHot.CallP99MS, offHot.CallP99MS)
	}
	out := FormatChurn(cells)
	if !strings.Contains(out, "admission") || !strings.Contains(out, "call-p99") {
		t.Errorf("FormatChurn output malformed:\n%s", out)
	}
}

// The churn grid — timeline events, churn arrivals, departures, admission —
// must be bit-identical fanned across workers and run sequentially.
func TestChurnParallelMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	seq := FormatChurn(testChurnGrid(t))
	runtime.GOMAXPROCS(4)
	par := FormatChurn(testChurnGrid(t))
	runtime.GOMAXPROCS(prev)
	if seq != par {
		t.Fatalf("parallel churn grid differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}
