package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// addLibrarySeeds seeds a fuzz corpus with every shipped scenario, so the
// fuzzer mutates realistic .ispn programs instead of rediscovering the
// grammar from noise.
func addLibrarySeeds(f *testing.F) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		f.Fatalf("scenario library missing: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ispn") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(libraryDir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
}

// FuzzParseScenario asserts the lexer and parser never panic: any input is
// either a File or an error.
func FuzzParseScenario(f *testing.F) {
	addLibrarySeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		file, err := Parse("fuzz.ispn", []byte(src))
		if err == nil && file == nil {
			t.Fatal("nil file with nil error")
		}
	})
}

// FuzzCompileScenario pushes parsed programs through semantic analysis,
// network construction and half a simulated second. Compile must reject bad
// programs with an error, and nothing may panic: a value that can only fail
// mid-run (a Churn call's packet size) must fail at compile.
func FuzzCompileScenario(f *testing.F) {
	addLibrarySeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		// Mutated numeric literals can ask for million-node topologies or
		// gigabit sources; that is an expensive way to find nothing. Keep
		// inputs small and numbers below five digits.
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		digits := 0
		for _, r := range src {
			if r >= '0' && r <= '9' {
				if digits++; digits >= 5 {
					t.Skip("huge numeric literal")
				}
			} else {
				digits = 0
			}
		}
		file, err := Parse("fuzz.ispn", []byte(src))
		if err != nil {
			return
		}
		s, err := Compile(file, Options{Horizon: 0.5})
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("nil sim with nil error")
		}
		s.Run()
	})
}
