package experiments

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ispn/internal/fuzz"
	"ispn/internal/routing"
	"ispn/internal/scenario"
)

// probeWorlds gives every row of the scenario compiler's element table a
// world in which an unknown argument (the %s) is the first thing the
// compiler rejects, so its diagnostic lists the row's accepted arguments.
// "Link event" is a link chain's Link(...) inside an at block.
var probeWorlds = map[string]string{
	"Net":         "n :: Net(%s)",
	"Run":         "r :: Run(%s)",
	"Reroute":     "x :: Reroute(%s)",
	"RouteCache":  "x :: RouteCache(%s)",
	"Switch":      "x :: Switch(%s)",
	"Star":        "x :: Star(%s)",
	"Dumbbell":    "x :: Dumbbell(%s)",
	"ParkingLot":  "x :: ParkingLot(%s)",
	"Random":      "x :: Random(%s)",
	"Guaranteed":  probeLink + "x :: Guaranteed(rate 10kbps, path A -> B, %s)",
	"Predicted":   probeLink + "x :: Predicted(rate 10kbps, path A -> B, %s)",
	"Datagram":    probeLink + "x :: Datagram(path A -> B, %s)",
	"TCP":         "A, B :: Switch\nA <-> B\nx :: TCP(path A -> B, %s)",
	"Markov":      probeLink + "d :: Datagram(path A -> B)\nx :: Markov(peak 20pps, avg 10pps, %s)\nx -> d",
	"CBR":         probeLink + "d :: Datagram(path A -> B)\nx :: CBR(rate 10pps, %s)\nx -> d",
	"Poisson":     probeLink + "d :: Datagram(path A -> B)\nx :: Poisson(rate 10pps, %s)\nx -> d",
	"TokenBucket": probeLink + "d :: Datagram(path A -> B)\ns :: CBR(rate 10pps)\nx :: TokenBucket(rate 10pps, %s)\ns -> x -> d",
	"Churn":       probeLink + "x :: Churn(every 1s, hold 1s, rate 10kbps, pps 10pps, paths [A -> B], %s)",
	"Link":        "A, B :: Switch\nA -> B :: Link(%s)",
	"Link event":  probeLink + "at 1s { A -> B :: Link(%s) }",
	"renew":       probeLink + "g :: Guaranteed(rate 10kbps, path A -> B)\nat 1s { renew g (%s) }",
}

const probeLink = "A, B :: Switch\nA -> B\n"

// unwritten is the keep-list: accepted (row, argument) pairs that no
// workload this test walks writes, each with the reason it stays. The
// benchmark's generated texts (bench/gen.go, a module of its own) are not
// walked here.
var unwritten = map[string]string{
	"Net(propdelay)":      "bench/gen.go's churn_control world writes it",
	"Net(shards)":         "bench/gen.go's mesh_sharded world writes it; TestShardNetArgument checks it",
	"Link(delay)":         "bench/gen.go's mesh_sharded ring links write it: a cross-shard link's delay is the lookahead",
	"Markov(start)":       "bench/gen.go staggers its Markov sources with it",
	"Poisson(start)":      "bench/gen.go staggers its Poisson sources with it",
	"Link event(sched)":   "a live swap takes the static Link's profile arguments through one parser; the library swaps sharing, docs/SCENARIO.md a kind",
	"Link event(targets)": "a live swap takes the static Link's profile arguments through one parser; the library swaps sharing",
	"Link event(quota)":   "a live swap takes the static Link's profile arguments through one parser; the library swaps sharing",
}

// compileErr parses and compiles src, returning the compile diagnostic.
func compileErr(t *testing.T, src string) string {
	t.Helper()
	f, err := scenario.Parse("probe.ispn", []byte(src))
	if err != nil {
		t.Fatalf("probe does not parse: %v\n%s", err, src)
	}
	if _, err := scenario.Compile(f, scenario.Options{}); err != nil {
		return err.Error()
	}
	return ""
}

// acceptedPairs reads the element table through the compiler's own
// diagnostics: the unknown-kind error lists the kinds, and each row's
// unknown-argument error lists its arguments.
func acceptedPairs(t *testing.T) map[string]bool {
	t.Helper()
	kindsRE := regexp.MustCompile(`unknown element kind "Zzprobe" \(kinds: (.*)\)$`)
	m := kindsRE.FindStringSubmatch(compileErr(t, "x :: Zzprobe"))
	if m == nil {
		t.Fatal("the unknown-kind diagnostic no longer lists the kinds")
	}
	rows := append(strings.Split(m[1], ", "), "Link", "Link event", "renew")
	argsRE := regexp.MustCompile(`has no argument "zzprobe" \(accepted: (.*)\)$`)
	pairs := map[string]bool{}
	for _, row := range rows {
		world, ok := probeWorlds[row]
		if !ok {
			t.Fatalf("kind %s has no probe world", row)
		}
		diag := compileErr(t, fmt.Sprintf(world, "zzprobe 1"))
		m := argsRE.FindStringSubmatch(diag)
		if m == nil {
			t.Fatalf("%s's probe did not list its arguments: %q", row, diag)
		}
		if m[1] == "none" {
			continue
		}
		for _, arg := range strings.Split(m[1], ", ") {
			pairs[row+"("+arg+")"] = true
		}
	}
	return pairs
}

// writtenPairs adds every (row, argument) pair src writes to into.
func writtenPairs(t *testing.T, name, src string, into map[string]bool) {
	t.Helper()
	f, err := scenario.Parse(name, []byte(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	add := func(row string, args []scenario.Arg) {
		for _, a := range args {
			into[row+"("+a.Name+")"] = true
		}
	}
	for _, d := range f.Decls {
		add(d.Kind, d.Args)
	}
	for _, ch := range f.Chains {
		add("Link", ch.Attrs)
	}
	for _, b := range f.Events {
		for _, st := range b.Stmts {
			switch {
			case st.Decl != nil:
				add(st.Decl.Kind, st.Decl.Args)
			case st.Chain != nil:
				add("Link event", st.Chain.Attrs)
			case st.Op != nil:
				add(st.Op.Verb, st.Op.Args)
			}
		}
	}
}

// experimentCells renders every kind of cell the experiments generate: the
// scheduler worlds under every discipline (Tables 1-2, the ablations,
// compare, sweep, dist and mixed build theirs from these), and each other
// study's cell under each of its settings.
func experimentCells() map[string]string {
	cfg := RunConfig{Duration: 30, Seed: 1}
	cells := map[string]string{
		"table3":                 table3Source(cfg),
		"playback":               playbackSource(cfg),
		"admission, measurement": admissionSource(cfg, 150, "measurement"),
		"admission, worst-case":  admissionSource(cfg, 150, "worst-case"),
	}
	for _, d := range []discipline{fifo, fifoPlus, wfq, vclock, drr, edd, stopAndGo} {
		cells["single link, "+d.name] = singleLink(10, d).source(cfg)
		cells["Figure-1 chain, "+d.name] = figure1Chain(d).source(cfg)
	}
	for _, adm := range []bool{false, true} {
		cells[fmt.Sprintf("churn, admission %v", adm)] = churnScenarioSrc(DefaultChurnEveryMS[0], adm, cfg.Duration, cfg.Seed)
		cells[fmt.Sprintf("failover, reroute %v", adm)] = failoverScenarioSrc(adm, cfg.Duration, cfg.Seed)
	}
	for _, s := range routing.CacheSchemes {
		cells["cache, "+s] = cacheScenarioSrc(s, cfg.Duration, cfg.Seed)
	}
	return cells
}

// TestWrittenArguments is the written-argument census: every (row,
// argument) pair the scenario compiler accepts must be written by the
// scenario library, a generated experiment cell or one of 200 fuzz worlds,
// or stand in the keep-list with a reason. A keep-list entry that is
// written, or no longer accepted, is stale and fails too.
func TestWrittenArguments(t *testing.T) {
	accepted := acceptedPairs(t)
	written := map[string]bool{}
	files, err := filepath.Glob("../../scenarios/*.ispn")
	if err != nil || len(files) == 0 {
		t.Fatalf("scenario library: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		writtenPairs(t, path, string(src), written)
	}
	cells := experimentCells()
	for _, name := range slices.Sorted(maps.Keys(cells)) {
		writtenPairs(t, name, cells[name], written)
	}
	for seed := int64(1); seed <= 200; seed++ {
		writtenPairs(t, fmt.Sprintf("fuzz world %d", seed), string(fuzz.NewWorld(seed).Render()), written)
	}
	for _, pair := range slices.Sorted(maps.Keys(accepted)) {
		if written[pair] || unwritten[pair] != "" {
			continue
		}
		t.Errorf("%s is accepted but no workload writes it: delete it from its row, or keep-list it with a reason", pair)
	}
	for _, pair := range slices.Sorted(maps.Keys(unwritten)) {
		switch {
		case !accepted[pair]:
			t.Errorf("keep-list entry %s is stale: the compiler no longer accepts it", pair)
		case written[pair]:
			t.Errorf("keep-list entry %s is stale: a workload writes it", pair)
		}
	}
}
