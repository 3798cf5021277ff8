package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDeriveRNGStableByName(t *testing.T) {
	a := DeriveRNG(7, "flow-3")
	b := DeriveRNG(7, "flow-3")
	c := DeriveRNG(7, "flow-4")
	sameCount := 0
	for i := 0; i < 50; i++ {
		av, bv, cv := a.Float64(), b.Float64(), c.Float64()
		if av != bv {
			t.Fatal("same (seed,name) produced different streams")
		}
		if av == cv {
			sameCount++
		}
	}
	if sameCount > 5 {
		t.Fatalf("different names produced suspiciously similar streams (%d/50 equal)", sameCount)
	}
}

func TestDeriveRNGDependsOnBase(t *testing.T) {
	a := DeriveRNG(1, "x")
	b := DeriveRNG(2, "x")
	equal := true
	for i := 0; i < 20; i++ {
		if a.Float64() != b.Float64() {
			equal = false
			break
		}
	}
	if equal {
		t.Fatal("different base seeds produced identical streams")
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("Exp mean = %v, want ~3.0", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	g := NewRNG(1)
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Fatal("Exp with non-positive mean should return 0")
	}
}

func TestGeometricMeanAndSupport(t *testing.T) {
	g := NewRNG(2)
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		v := g.Geometric(5.0)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Geometric mean = %v, want ~5.0", mean)
	}
}

func TestGeometricDegenerate(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10; i++ {
		if v := g.Geometric(1.0); v != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", v)
		}
		if v := g.Geometric(0.5); v != 1 {
			t.Fatalf("Geometric(0.5) = %d, want 1", v)
		}
	}
}

func TestGeometricDistributionShape(t *testing.T) {
	// For mean 2 (p = 0.5), P(1) should be ~0.5.
	g := NewRNG(4)
	const n = 100000
	ones := 0
	for i := 0; i < n; i++ {
		if g.Geometric(2.0) == 1 {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("P(X=1) = %v, want ~0.5", frac)
	}
}

func TestIntnRange(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := g.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}
