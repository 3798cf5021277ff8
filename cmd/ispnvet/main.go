// Command ispnvet runs the repo's custom determinism/ownership analyzers
// (internal/analysis, catalog in docs/ANALYSIS.md) over Go packages, as a
// go vet tool:
//
//	go vet -vettool=$(pwd)/bin/ispnvet ./...
//
// It implements the cmd/go unit-checking contract: -V=full prints a version
// for the build cache, -flags advertises no extra flags, and a *.cfg
// argument analyzes one package from the JSON configuration go vet supplies
// (export data for imports, so no re-typechecking of dependencies).
// Diagnostics print as file:line:col: message [analyzer]; any finding makes
// the exit status nonzero and fails `make lint`.
package main

import (
	"fmt"
	"os"
	"strings"

	"ispn/internal/analysis"
)

const version = "v1.0.0"

func main() {
	// The cmd/go vettool protocol probes before any real work:
	//   ispnvet -V=full   → one line identifying the tool for cache keys
	//   ispnvet -flags    → JSON list of tool flags (none beyond the core)
	//   ispnvet foo.cfg   → analyze one unit
	if len(os.Args) == 2 {
		switch {
		case os.Args[1] == "-V=full":
			fmt.Printf("ispnvet version %s\n", version)
			return
		case os.Args[1] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(os.Args[1], ".cfg"):
			unitMain(os.Args[1])
			return
		}
	}
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=<path-to-ispnvet> [packages]\n\nanalyzers:\n")
	for _, a := range analysis.Analyzers {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
	}
	os.Exit(2)
}
