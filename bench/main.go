// Command bench is the repository's benchmark: five workloads that load
// different layers of the simulator, four gated end-to-end metrics, per-layer
// probes, and a traced run. It measures every layer from outside — timers,
// public counters, a CPU profile, micro-probes — and changes nothing outside
// its own directory. README.md explains the metrics and the workloads.
//
// Every repeat of a workload runs in its own child process (this binary,
// re-executed), so each starts from a clean heap and its VmHWM is its own.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	defaultSeed = 1992 // the paper's year, like the scenario language's default
	// repeats is how many times an untraced run measures a workload, each in
	// a child process of its own. It is a constant, like the workload sizes:
	// the median of a fixed number of equal repeats means the same thing on a
	// fast build and on a slow one.
	repeats = 5
	// runSeconds is what the repeats of one workload measure on the reference
	// host, five times about 2.4 s: BENCHMARK.json's run_seconds, and the
	// only value -seconds takes.
	runSeconds   = 12
	childTimeout = 120 * time.Second
)

// workload is one set of inputs. run executes one repeat in this process:
// mode "run" is the measured repeat, "traced" the same with a tracer, "twin"
// the reference run whose report the workload must reproduce byte for byte.
type workload struct {
	name    string
	hasTwin bool
	run     func(seed int64, mode string, tr *tracer) (*childResult, error)
}

// The five workloads; BENCHMARK.json and README.md say why each is here.
var workloads = []*workload{
	{name: "chain_batch", run: runChain},                // data plane, sequential
	{name: "mesh_sharded", run: runMesh, hasTwin: true}, // data plane through the shard coordinator
	{name: "churn_control", run: runChurn},              // control plane: routing, admission, reroute
	{name: "million_members", run: runMillion},          // resident per-member state, inline policers
	{name: "serve_live", run: runServe, hasTwin: true},  // the HTTP control plane, live
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func runChain(seed int64, _ string, tr *tracer) (*childResult, error) {
	j := scenarioJob{workload: "chain_batch", text: genChain(seed), check: checkChain}
	return j.run(tr)
}

func runMesh(seed int64, mode string, tr *tracer) (*childResult, error) {
	shards := 2
	if mode == "twin" {
		shards = 0
	}
	j := scenarioJob{workload: "mesh_sharded", text: genMesh(seed, shards)}
	return j.run(tr)
}

func runChurn(seed int64, _ string, tr *tracer) (*childResult, error) {
	text, flaps := genChurn(seed)
	j := scenarioJob{workload: "churn_control", text: text, instants: flaps, check: checkChurn}
	return j.run(tr)
}

// normalizeArgs lets -trace stand alone (`bench -trace`) as well as take the
// driver's 0|1 value (`--trace 1`), which the flag package cannot do itself.
func normalizeArgs(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a == "-trace" || a == "--trace" {
			if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
				out[len(out)-1] = a + "=1"
			}
		}
	}
	return out
}

func main() {
	args := normalizeArgs(os.Args[1:])
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	seed := fs.Int64("seed", defaultSeed, "seed every generated input derives from")
	name := fs.String("workload", "", "run this workload only (default: all five)")
	trace := fs.Int("trace", 0, "1 = the traced run: spans, CPU profile, counters and probes; prints the per-layer metrics")
	out := fs.String("out", "", "result file (default <bench>/out/<run>.json); span files and profiles land beside it")
	seconds := fs.Float64("seconds", runSeconds, "the driver passes BENCHMARK.json's run_seconds; no other value is accepted, the run is five repeats")
	child := fs.String("child", "", "internal: run one repeat in this process (run, traced, twin, probes)")
	shape := fs.String("shape", "", "internal: observed occupancy for -child probes, as JSON")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bench [-seed n] [-workload name] [-trace] [-out file]\n       bench compare A.json B.json\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args) // ExitOnError
	if fs.NArg() > 0 {
		fs.Usage()
		os.Exit(2)
	}
	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "bench: -seconds %v: a run is %d repeats, about %d s; its length is not a setting\n", *seconds, repeats, runSeconds)
		os.Exit(2)
	}

	resultPath = *out
	if resultPath == "" {
		dir := "out"
		if st, err := os.Stat("bench/go.mod"); err == nil && !st.IsDir() {
			dir = "bench/out" // started from the repository root (bench/run.sh)
		}
		run := "set"
		if *name != "" {
			run = *name
		}
		if *trace == 1 {
			run += "-traced"
		}
		resultPath = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", run, *seed))
	}
	outDir = filepath.Dir(resultPath)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	if *child != "" {
		if err := childMain(*child, *name, *seed, *shape); err != nil {
			fatal(err)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workload{w}
	}
	file := runFile{
		Seed: *seed, Traced: *trace == 1,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, w := range selected {
		var res *workloadResult
		var err error
		if file.Traced {
			res, err = runTraced(w, *seed)
		} else {
			res, err = runUntraced(w, *seed)
		}
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		file.Workloads = append(file.Workloads, *res)
	}
	if err := writeJSONFile(resultPath, file); err != nil {
		fatal(err)
	}

	failed := false
	for _, r := range file.Workloads {
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "bench: FAILED CHECK: %s\n", f)
		}
		failed = failed || r.Failed > 0
	}
	if *name != "" {
		// The driver's contract: the last line of standard output is the
		// run's result as one JSON object.
		fmt.Println(file.Workloads[0].contractLine())
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// childMain runs one repeat in this process and writes its result to
// standard output as JSON.
func childMain(mode, name string, seed int64, shapeJSON string) error {
	var res *childResult
	var err error
	if mode == "probes" {
		var sh probeShape
		if err := json.Unmarshal([]byte(shapeJSON), &sh); err != nil {
			return fmt.Errorf("-shape: %w", err)
		}
		res = &childResult{Layer: runProbes(seed, sh)}
	} else {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		var tr *tracer
		if mode == "traced" {
			tr = newTracer(name)
		}
		if res, err = w.run(seed, mode, tr); err != nil {
			return err
		}
		if tr != nil {
			if err := writeJSONFile(filepath.Join(outDir, "trace-"+name+".json"), tr.spans); err != nil {
				return err
			}
		}
	}
	if res.PeakRSS, err = peakRSS(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// peakRSS reads this process's resident-set high-water mark.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// spawn runs one repeat in a child process and fails loudly if the child
// dies, overruns its timeout or prints something that is not a result.
func spawn(w *workload, seed int64, mode string, extra ...string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", mode, "-seed", fmt.Sprint(seed), "-out", resultPath}
	if w != nil {
		args = append(args, "-workload", w.name)
	}
	cmd := exec.CommandContext(ctx, exe, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits until the child has ended
	what := mode
	if w != nil {
		what = w.name + " " + mode
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: child exceeded %v and was killed", what, childTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: child failed: %w", what, err)
	}
	var res childResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("%s: child printed no result: %w", what, err)
	}
	return &res, nil
}
