package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// TestMixedDeploymentEndpoints is the acceptance criterion of the per-link
// profile refactor: the sweep's 0% and 100% rollout rows must be
// bit-identical to the Table-2 FIFO and FIFO+ columns — heterogeneity added
// no noise to the homogeneous cases.
func TestMixedDeploymentEndpoints(t *testing.T) {
	cfg := RunConfig{Duration: 20, Seed: 1992}
	rows := MixedDeployment(cfg)
	if len(rows) != 5 {
		t.Fatalf("got %d rollout rows, want 5", len(rows))
	}
	table2 := Table2(cfg)
	fifo, fifoPlus := table2[1], table2[2]
	if rows[0].PerPath != fifo.PerPath {
		t.Errorf("0%% rollout differs from Table 2 FIFO:\nmixed: %#v\ntable: %#v", rows[0].PerPath, fifo.PerPath)
	}
	if rows[4].PerPath != fifoPlus.PerPath {
		t.Errorf("100%% rollout differs from Table 2 FIFO+:\nmixed: %#v\ntable: %#v", rows[4].PerPath, fifoPlus.PerPath)
	}
	for k, r := range rows {
		if r.UpgradedHops != k {
			t.Errorf("row %d reports %d upgraded hops", k, r.UpgradedHops)
		}
		for i, s := range r.PerPath {
			if s.N == 0 {
				t.Errorf("row %d path length %d delivered nothing", k, i+1)
			}
		}
	}
}

// TestMixedParallelMatchesSequential extends the bit-identical worker-pool
// guarantee to the rollout sweep.
func TestMixedParallelMatchesSequential(t *testing.T) {
	cfg := RunConfig{Duration: 8, Seed: 424242}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	seq := MixedDeployment(cfg)

	runtime.GOMAXPROCS(8)
	par := MixedDeployment(cfg)

	if !reflect.DeepEqual(seq, par) {
		t.Errorf("MixedDeployment parallel != sequential:\nseq: %#v\npar: %#v", seq, par)
	}
	if got, want := FormatMixed(par), FormatMixed(seq); got != want {
		t.Errorf("FormatMixed differs:\nseq:\n%s\npar:\n%s", want, got)
	}
}
