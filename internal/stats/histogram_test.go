package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0.001, 2, 10)
	for _, x := range []float64{0.0005, 0.001, 0.002, 0.003, 0.1} {
		h.Add(x)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	want := (0.0005 + 0.001 + 0.002 + 0.003 + 0.1) / 5
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	h := NewHistogram(1, 2, 8)
	lo, hi := h.BucketBounds(0)
	if lo != 1 || hi != 2 {
		t.Fatalf("bucket 0 = [%v,%v)", lo, hi)
	}
	lo, hi = h.BucketBounds(3)
	if lo != 8 || hi != 16 {
		t.Fatalf("bucket 3 = [%v,%v)", lo, hi)
	}
}

func TestHistogramOverflowClamped(t *testing.T) {
	h := NewHistogram(1, 2, 4) // covers [1, 16)
	h.Add(1e9)
	if h.Count() != 1 {
		t.Fatal("overflow sample lost")
	}
	if got := h.counts[len(h.counts)-1]; got != 1 {
		t.Fatalf("last bucket holds %d, want the clamped overflow sample", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewDelayHistogram()
	for i := 0; i < 100; i++ {
		h.Add(0.003)
	}
	for i := 0; i < 10; i++ {
		h.Add(0.030)
	}
	out := h.Render(1000, "ms")
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars in render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("render too short:\n%s", out)
	}
	if NewDelayHistogram().Render(1, "s") != "(no samples)\n" {
		t.Fatal("empty render wrong")
	}
}

func TestHistogramConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 2, 4) },
		func() { NewHistogram(1, 1, 4) },
		func() { NewHistogram(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}
