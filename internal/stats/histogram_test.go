package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewDelayHistogram()
	for _, x := range []float64{0.00005, 0.001, 0.002, 0.003, 0.1} {
		h.Add(x)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	want := (0.00005 + 0.001 + 0.002 + 0.003 + 0.1) / 5
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
	if h.under != 1 {
		t.Fatalf("underflow holds %d, want the one sample below 0.1 ms", h.under)
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	lo, hi := bucketBounds(0)
	if lo != 1e-4 || hi != 1e-4*math.Sqrt2 {
		t.Fatalf("bucket 0 = [%v,%v)", lo, hi)
	}
	// Every second bucket doubles: bucket 20 starts at 2¹⁰·0.1 ms.
	lo, hi = bucketBounds(20)
	if math.Abs(lo-0.1024) > 1e-12 || math.Abs(hi-0.1024*math.Sqrt2) > 1e-12 {
		t.Fatalf("bucket 20 = [%v,%v)", lo, hi)
	}
	// A sample lands in the bucket whose bounds hold it.
	h := NewDelayHistogram()
	h.Add(0.003)
	for i, c := range h.counts {
		if lo, hi := bucketBounds(i); (c == 1) != (lo <= 0.003 && 0.003 < hi) {
			t.Fatalf("bucket %d [%v,%v) holds %d", i, lo, hi, c)
		}
	}
}

func TestHistogramOverflowClamped(t *testing.T) {
	h := NewDelayHistogram() // covers [0.1 ms, ~105 s)
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
	under := NewDelayHistogram()
	under.Add(0)
	under.Add(1e-5)
	if got, want := under.Render(1000, "ms"), fmt.Sprintf("%11s < %8.3f ms  %7d\n", "", 0.1, 2); got != want {
		t.Fatalf("render of underflow only = %q, want %q", got, want)
	}
}
