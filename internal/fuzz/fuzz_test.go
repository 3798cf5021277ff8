package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ispn/internal/invariant"
	"ispn/internal/scenario"
)

func TestWorldRenderDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		a := NewWorld(seed).Render()
		b := NewWorld(seed).Render()
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d renders differently across calls", seed)
		}
	}
	if bytes.Equal(NewWorld(1).Render(), NewWorld(2).Render()) {
		t.Fatal("different seeds rendered identical worlds")
	}
}

func TestCloneIsDeep(t *testing.T) {
	w := NewWorld(3)
	c := w.Clone()
	if len(c.Events) > 0 {
		c.Events[0].At = -1
	}
	if len(c.Flows) > 0 {
		c.Flows[0].Name = "mutated"
	}
	if !bytes.Equal(w.Render(), NewWorld(3).Render()) {
		t.Fatal("mutating a clone changed the original")
	}
}

func TestFuzzRunSmall(t *testing.T) {
	// 40 worlds, each run under the oracle.
	// Every case must pass: generated worlds are conforming by
	// construction, so a failure here is a real simulator or harness bug.
	sum, err := Config{N: 40, Seed: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cases != 40 {
		t.Fatalf("ran %d of 40 cases", sum.Cases)
	}
	for _, f := range sum.Failures {
		t.Errorf("seed %d: %s\n%s", f.Seed, f.Reason, f.Source)
	}
	if sum.Skipped > sum.Cases/4 {
		t.Fatalf("%d of %d worlds statically inadmissible — generator too aggressive", sum.Skipped, sum.Cases)
	}
}

// plant adds a real violation to a generated world: a guaranteed flow with a
// one-packet bucket on the first pooled path, fed at twice the 1 Mbit/s
// line rate, 40 times its clock rate. Guaranteed flows are not policed, so
// its backlog grows until the buffer caps it, and its delay passes the
// Parekh-Gallager bound of a one-packet bucket by far.
func plant(w *World) *World {
	w.Flows = append(w.Flows, Flow{
		Name: "planted", Kind: "Guaranteed", RateKbps: 50, BucketKb: 1,
		Path: w.Topo.Paths[0], Src: Source{Kind: "cbr", PPS: 2000},
	})
	return w
}

func TestTeethAndMinimization(t *testing.T) {
	// A planted violation must make the harness fail, minimize the case,
	// write a corpus file, and keep failing when that file is replayed.
	// A harness that cannot fail proves nothing when it passes.
	w := plant(NewWorld(1))
	cfg := Config{Dir: t.TempDir()}
	err := cfg.runCase(w)
	if err == nil || !strings.Contains(err.Error(), invariant.CheckPGBound) {
		t.Fatalf("planted over-rate guaranteed flow: runCase = %v, want a %s failure", err, invariant.CheckPGBound)
	}
	f, err := cfg.fail(w, err)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Reason, invariant.CheckPGBound) {
		t.Fatalf("unexpected failure reason: %s", f.Reason)
	}
	if filepath.Base(f.Path) != "seed1.ispn" {
		t.Fatalf("corpus file named %q, want seed1.ispn", f.Path)
	}
	got, err := os.ReadFile(f.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f.Source) {
		t.Fatal("corpus file does not match the minimized source")
	}
	// The corpus file is a self-contained .ispn: run alone under the
	// oracle, it must fail the same way.
	file, err := scenario.Parse(f.Path, got)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Compile(file, scenario.Options{Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.Run(); !rep.Check.Failed() || rep.Check.Violations[0].Checker != invariant.CheckPGBound {
		t.Fatalf("replayed corpus file: violations %v, want a %s failure", rep.Check.Violations, invariant.CheckPGBound)
	}
}

func TestMinimizeShrinks(t *testing.T) {
	var cfg Config
	var w *World
	for seed := int64(1); seed <= 20; seed++ {
		if c := NewWorld(seed); len(c.Flows) > 2 && len(c.Events) > 0 {
			w = plant(c)
			break
		}
	}
	if w == nil {
		t.Fatal("no world with several flows and events in the first 20 seeds")
	}
	before := len(w.Flows) + len(w.Events)
	min, err := cfg.Minimize(w)
	if err == nil {
		t.Fatal("minimized world no longer fails")
	}
	if after := len(min.Flows) + len(min.Events); after >= before {
		t.Fatalf("minimizer did not shrink the world: %d -> %d parts", before, after)
	}
	if !slices.ContainsFunc(min.Flows, func(f Flow) bool { return f.Name == "planted" }) {
		t.Fatalf("minimizer dropped the planted flow and still reports %v", err)
	}
}
