// Command ispnsim regenerates every table and figure of Clark, Shenker &
// Zhang (SIGCOMM 1992) plus the ablation studies in DESIGN.md, runs
// declarative .ispn scenario files (see docs/SCENARIO.md), and serves the
// live HTTP/JSON control plane (see docs/SERVE.md).
//
// Usage:
//
//	ispnsim [-horizon s] [-seed n] <experiment>
//	ispnsim [-seed n] [-horizon s] [-check] [-cpuprofile f] [-memprofile f] run <file.ispn>...
//	ispnsim [-seed n] [-horizon s] check <file.ispn>...
//	ispnsim [-n cases] [-seed n] [-corpus dir] fuzz
//	ispnsim scenarios [dir]
//	ispnsim [-addr host:port] serve [dir]
//
// where <experiment> is `all` or a name from experiments.Catalogue (run
// ispnsim without arguments for the list). Independent simulations run on
// GOMAXPROCS workers; a scenario's shard count is its file's Net(shards N).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"ispn/internal/experiments"
	"ispn/internal/fuzz"
	"ispn/internal/scenario"
)

// verbInfo describes one scenario verb for the generated usage text: its
// argument shape, the global flags it honors, a one-line summary, and the
// docs/ page that documents it. The usage renderer sorts by name, so adding
// a verb here cannot leave the help stale or misordered (main_test.go pins
// the table against the dispatcher and requires every docs anchor to exist
// and mention its verb).
type verbInfo struct {
	name    string
	args    string
	flags   string
	summary string
	docs    string
}

var verbs = []verbInfo{
	{"check", "<file.ispn>...", "-seed -horizon",
		"parse and validate scenario files without running",
		"docs/SCENARIO.md"},
	{"fuzz", "", "-n -seed -corpus",
		"generate -n random worlds, run each sequentially and sharded\nunder the invariant oracle, minimize failures",
		"docs/TESTING.md"},
	{"run", "<file.ispn>...", "-seed -horizon -check -cpuprofile -memprofile",
		"simulate scenario files (in parallel when several)",
		"docs/SCENARIO.md"},
	{"scenarios", "[dir]", "",
		"list the scenario library (default dir: scenarios)",
		"docs/SCENARIO.md"},
	{"serve", "[dir]", "-addr",
		"serve the live HTTP/JSON control API over the scenario library\nin dir (default: scenarios)",
		"docs/SERVE.md"},
}

// buildUsage renders the help text from the verb table and the experiment
// catalogue.
func buildUsage() string {
	var b strings.Builder
	b.WriteString("usage: ispnsim [flags] <verb> [args]\n")
	b.WriteString("       ispnsim [flags] <experiment>\n\nverbs:\n")
	sorted := append([]verbInfo(nil), verbs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, v := range sorted {
		head := v.name
		if v.args != "" {
			head += " " + v.args
		}
		lines := strings.Split(v.summary, "\n")
		fmt.Fprintf(&b, "  %-21s %s\n", head, lines[0])
		for _, l := range lines[1:] {
			fmt.Fprintf(&b, "  %-21s %s\n", "", l)
		}
		if v.flags != "" {
			fmt.Fprintf(&b, "  %-21s flags: %s\n", "", v.flags)
		}
		if v.docs != "" {
			fmt.Fprintf(&b, "  %-21s see %s\n", "", v.docs)
		}
	}
	b.WriteString("\nexperiments (also: all = every row below):\n")
	for _, e := range experiments.Catalogue {
		fmt.Fprintf(&b, "  %-21s %s\n", e.Name, e.Summary)
	}
	b.WriteString("\nflags:\n")
	return b.String()
}

func usage() {
	fmt.Fprint(os.Stderr, buildUsage())
	flag.PrintDefaults()
}

// scenarioOptions translates explicitly set flags into compile overrides, so
// a file's own Run(seed ..., horizon ...) knobs win unless the user asked.
func scenarioOptions(seed int64, horizon float64, check bool) scenario.Options {
	opts := scenario.Options{Check: check}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			opts.Seed = &seed
		case "horizon":
			opts.Horizon = horizon
		}
	})
	return opts
}

// fuzzFlags carries the fuzz verb's knobs from main.
type fuzzFlags struct {
	n      int
	corpus string
}

// scenarioMain handles the run/check/fuzz/scenarios/serve verbs; it returns
// false when name is a classic experiment instead.
func scenarioMain(name string, args []string, seed int64, horizon float64, check bool, ff fuzzFlags, addr string) bool {
	switch name {
	case "run":
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "ispnsim run: need at least one .ispn file")
			os.Exit(2)
		}
		start := time.Now()
		results, err := experiments.RunScenarios(args, scenarioOptions(seed, horizon, check))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, res := range results {
			fmt.Println(res.Report.Format())
		}
		fmt.Printf("[%d scenario(s): %.1fs wall clock]\n", len(results), time.Since(start).Seconds())
	case "check":
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "ispnsim check: need at least one .ispn file")
			os.Exit(2)
		}
		if err := experiments.CheckScenarios(args, scenarioOptions(seed, horizon, check)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%d scenario(s) OK\n", len(args))
	case "fuzz":
		if len(args) != 0 {
			fmt.Fprintln(os.Stderr, "ispnsim fuzz: takes no arguments (use -n, -seed, -corpus)")
			os.Exit(2)
		}
		start := time.Now()
		sum, err := fuzz.Config{
			N: ff.n, Seed: seed, Dir: ff.corpus, Log: os.Stdout,
		}.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("fuzz: %d case(s) from seed %d, %d statically inadmissible, %d failure(s) [%.1fs wall clock]\n",
			sum.Cases, seed, sum.Skipped, len(sum.Failures), time.Since(start).Seconds())
		if len(sum.Failures) > 0 {
			for _, f := range sum.Failures {
				fmt.Printf("  seed %d: %s\n", f.Seed, f.Reason)
				fmt.Printf("    repro: %s; replay: ispnsim fuzz -n 1 -seed %d\n", f.Path, f.Seed)
			}
			os.Exit(1)
		}
	case "serve":
		dir := "scenarios"
		if len(args) > 0 {
			dir = args[0]
		}
		if err := serveMain(addr, dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "scenarios":
		dir := "scenarios"
		if len(args) > 0 {
			dir = args[0]
		}
		infos, err := experiments.ListScenarios(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, info := range infos {
			fmt.Printf("%s (%s)\n", info.Name, info.Path)
			if info.Description != "" {
				for _, line := range strings.Split(info.Description, "\n") {
					fmt.Printf("    %s\n", line)
				}
			}
			fmt.Println()
		}
	default:
		return false
	}
	return true
}

// startProfiles begins CPU profiling and arranges a heap snapshot, returning
// a stop function to run once the simulations are done.
func startProfiles(cpuPath, memPath string) func() {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				os.Exit(1)
			}
		}
	}
}

func main() {
	seed := flag.Int64("seed", 1992, "random seed (scenarios: overrides the file's Run seed)")
	horizon := flag.Float64("horizon", 0, "simulated seconds: per experiment run (0 = the paper's 600), or a scenario horizon override (0 = the file's Run horizon)")
	check := flag.Bool("check", false, "run scenarios under the invariant oracle (adds an invariants section to each report)")
	n := flag.Int("n", 100, "fuzz: number of random worlds to generate and check")
	corpus := flag.String("corpus", "testdata/fuzz", "fuzz: directory receiving minimized failing repros")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file when done (pprof format)")
	addr := flag.String("addr", "localhost:8080", "serve: listen address for the HTTP control API")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	defer stopProfiles()
	if scenarioMain(flag.Arg(0), flag.Args()[1:], *seed, *horizon, *check,
		fuzzFlags{n: *n, corpus: *corpus}, *addr) {
		return
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cfg := experiments.RunConfig{Duration: cmp.Or(*horizon, experiments.PaperDuration), Seed: *seed}

	name, ran := flag.Arg(0), false
	for _, e := range experiments.Catalogue {
		if name != "all" && name != e.Name {
			continue
		}
		if name == "all" {
			fmt.Printf("=== %s ===\n", e.Name)
		}
		start := time.Now()
		fmt.Println(e.Run(cfg))
		if !e.Static {
			fmt.Printf("[%s: %.1fs wall clock, %.0fs simulated, seed %d]\n\n",
				e.Name, time.Since(start).Seconds(), cfg.Duration, *seed)
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		usage()
		os.Exit(2)
	}
}
