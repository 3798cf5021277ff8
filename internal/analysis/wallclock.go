package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockExempt lists the internal packages allowed to touch the host
// environment: the control plane paces sessions against real time, and the
// experiment runner prints wall-clock footers. Everything else in
// ispn/internal must draw time from the engine clock and randomness from
// named sim.RNG streams.
var wallClockExempt = []string{
	"ispn/internal/serve",
	"ispn/internal/experiments",
}

// randConstructors are the math/rand functions that build an explicitly
// seeded generator — the sanctioned way (sim.RNG wraps one). Everything
// else at package level draws from the process-global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// WallClock forbids ambient nondeterminism in simulation packages: reading
// the host clock (time.Now/Since/Until), the process-global math/rand
// source, or the environment (os.Getenv and friends). A simulation result
// must be a function of (scenario, seed) alone — that is what makes reports
// byte-identical across runs and fuzz repros replayable.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time, global math/rand, and environment reads in simulation packages",
	Run:  runWallClock,
}

func runWallClock(pass *Pass) error {
	if !isIspnInternal(pass.Path) || pathIn(pass.Path, wallClockExempt) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				switch sel.Sel.Name {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(), "time.%s reads the host clock; simulation time must come from the engine (sim.Engine.Now)", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if randConstructors[sel.Sel.Name] {
					return true
				}
				// Only package-level functions draw on the global source;
				// types (rand.Rand, rand.Source) and their methods are fine.
				if _, ok := pn.Imported().Scope().Lookup(sel.Sel.Name).(*types.Func); ok {
					pass.Reportf(sel.Pos(), "rand.%s draws from the process-global source; use a named sim.RNG stream (rand.New with an explicit seed)", sel.Sel.Name)
				}
			case "os":
				switch sel.Sel.Name {
				case "Getenv", "LookupEnv", "Environ":
					pass.Reportf(sel.Pos(), "os.%s makes results depend on the host environment; thread configuration through the scenario or Options instead", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
