package experiments

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ispn/internal/scenario"
)

// TestParallelMatchesSequential asserts the acceptance criterion of the
// worker-pool runner: for a fixed seed, fanning the independent
// sub-simulations across workers produces results bit-identical to running
// them one after another — both as structured rows and as the formatted
// tables.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := RunConfig{Duration: 8, Seed: 424242}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	seqT2 := Table2(cfg)
	seqHops := AblationHops(cfg, 3)

	runtime.GOMAXPROCS(8)
	parT2 := Table2(cfg)
	parHops := AblationHops(cfg, 3)

	if !reflect.DeepEqual(seqT2, parT2) {
		t.Errorf("Table2 parallel != sequential:\nseq: %#v\npar: %#v", seqT2, parT2)
	}
	if got, want := FormatTable2(parT2), FormatTable2(seqT2); got != want {
		t.Errorf("FormatTable2 differs:\nseq:\n%s\npar:\n%s", want, got)
	}
	if !reflect.DeepEqual(seqHops, parHops) {
		t.Errorf("AblationHops parallel != sequential:\nseq: %#v\npar: %#v", seqHops, parHops)
	}
	if got, want := FormatHops(parHops), FormatHops(seqHops); got != want {
		t.Errorf("FormatHops differs:\nseq:\n%s\npar:\n%s", want, got)
	}
}

// TestParallelScenariosMatchSequential extends the bit-identical guarantee
// to declarative scenario batches: running the whole library through
// RunScenarios with 8 workers must produce byte-for-byte the reports the
// sequential runner produces, fixed seed included.
func TestParallelScenariosMatchSequential(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.ispn"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("scenario library not found: %v (%d files)", err, len(paths))
	}
	seed := int64(424242)
	opts := scenario.Options{Seed: &seed, Horizon: 3}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	seq, err := RunScenarios(paths, opts)
	if err != nil {
		t.Fatalf("sequential RunScenarios: %v", err)
	}

	runtime.GOMAXPROCS(8)
	par, err := RunScenarios(paths, opts)
	if err != nil {
		t.Fatalf("parallel RunScenarios: %v", err)
	}

	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Path != par[i].Path {
			t.Errorf("result %d order differs: %s vs %s", i, seq[i].Path, par[i].Path)
		}
		if got, want := par[i].Report.Format(), seq[i].Report.Format(); got != want {
			t.Errorf("%s: parallel != sequential:\nseq:\n%s\npar:\n%s", seq[i].Path, want, got)
		}
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Errorf("%s: structured reports differ", seq[i].Path)
		}
	}
}

// TestParallelRunRepeatable asserts that two parallel runs with the same
// seed are identical to each other (no hidden shared state between worker
// goroutines).
func TestParallelRunRepeatable(t *testing.T) {
	cfg := RunConfig{Duration: 8, Seed: 7}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	a := Table1(cfg)
	b := Table1(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two parallel Table1 runs differ:\n%#v\n%#v", a, b)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	seen := make([]int32, 100)
	ForEach(len(seen), func(i int) { seen[i]++ })
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, n)
		}
	}
	ForEach(0, func(int) { t.Fatal("fn called for n=0") })
}
