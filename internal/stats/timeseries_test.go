package stats

import "testing"

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(1.0)
	ts.Add(0.1, 2)
	ts.Add(0.9, 4)
	ts.Add(2.5, 10)
	if got := len(ts.bins); got != 3 {
		t.Fatalf("%d bins, want 3", got)
	}
	b0 := ts.Bin(0)
	if b0.N != 2 || b0.Sum != 6 || b0.Max != 4 {
		t.Fatalf("bin 0 = %+v, want N=2 Sum=6 Max=4", b0)
	}
	if b0.Mean() != 3 {
		t.Fatalf("bin 0 mean = %v, want 3", b0.Mean())
	}
	if b1 := ts.Bin(1); b1.N != 0 || b1.Mean() != 0 {
		t.Fatalf("empty bin 1 = %+v, want zero", b1)
	}
	if b2 := ts.Bin(2); b2.N != 1 || b2.Max != 10 {
		t.Fatalf("bin 2 = %+v, want N=1 Max=10", b2)
	}
}

func TestTimeSeriesEdges(t *testing.T) {
	ts := NewTimeSeries(0.5)
	ts.Add(-1, 7) // negative time clamps to bin 0
	if b := ts.Bin(0); b.N != 1 || b.Max != 7 {
		t.Fatalf("negative-time sample lost: %+v", b)
	}
	if b := ts.Bin(99); b.N != 0 {
		t.Fatalf("out-of-range bin not empty: %+v", b)
	}
	if b := ts.Bin(-1); b.N != 0 {
		t.Fatalf("negative bin not empty: %+v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	NewTimeSeries(0)
}
