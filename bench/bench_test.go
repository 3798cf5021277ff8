package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ispn/internal/scenario"
)

// generated lists every text generator as seed -> texts.
var generated = map[string]func(seed int64) []string{
	"chain_batch":  func(s int64) []string { return []string{genChain(s)} },
	"mesh_sharded": func(s int64) []string { return []string{genMesh(s, 2), genMesh(s, 0)} },
	"churn_control": func(s int64) []string {
		text, _ := genChurn(s)
		return []string{text}
	},
	"serve_live": func(s int64) []string {
		var out []string
		for k := 1; k <= 3; k++ {
			base, events := genWAN(s, k)
			out = append(out, base+events)
		}
		return out
	},
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for name, gen := range generated {
		a, again, b := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, again) {
			t.Errorf("%s: the same seed gave different text", name)
		}
		for i := range a {
			if a[i] == b[i] {
				t.Errorf("%s: text %d is the same for seeds 7 and 8", name, i)
			}
		}
	}
}

func TestGeneratedScenariosSimulate(t *testing.T) {
	for name, gen := range generated {
		for i, text := range gen(defaultSeed) {
			f, err := scenario.Parse(name+".ispn", []byte(text))
			if err != nil {
				t.Fatalf("%s text %d does not parse: %v", name, i, err)
			}
			s, err := scenario.Compile(f, scenario.Options{Horizon: 1})
			if err != nil {
				t.Fatalf("%s text %d does not compile: %v", name, i, err)
			}
			if rep := s.Run(); len(rep.Format()) == 0 {
				t.Errorf("%s text %d: empty report", name, i)
			}
		}
	}
}

func TestChurnFlapsAreInsideTheHorizon(t *testing.T) {
	_, instants := genChurn(defaultSeed)
	if len(instants) != 8 {
		t.Fatalf("%d flap instants, want 4 fails + 4 restores", len(instants))
	}
	plan, isInstant := stepPlan(churnHorizon, instants)
	for _, at := range instants {
		if at <= 0 || at >= churnHorizon || !isInstant[at] {
			t.Errorf("flap at %v is not a step of its own inside (0, %v)", at, churnHorizon)
		}
	}
	for i := 1; i < len(plan); i++ {
		if plan[i] <= plan[i-1] {
			t.Fatalf("step plan not strictly increasing at %d: %v then %v", i, plan[i-1], plan[i])
		}
	}
	if plan[len(plan)-1] != churnHorizon {
		t.Errorf("plan ends at %v, want the horizon", plan[len(plan)-1])
	}
}

func TestMedianAndPercentileRule(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	if v, ok := percentile(xs, 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with exactly ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs, 0.96); ok {
		t.Error("p96 of 200 samples has only eight samples beyond it and must not be reported")
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("the median of 19 samples has only nine beyond it")
	}
	if v := percentileOr0(xs, 0.99); v != 0 {
		t.Errorf("an unsupported percentile reads %v in a metric table, want 0", v)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 29, 2, 16, 4, 22, 7, 37, 11}
	q1, q3 := quartiles(sorted(xs))
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if got, want := spread(xs), (31-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{10, 11, 12}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread of three values = %v, want range/median", got)
	}
}

func TestAttributeChargesInnermostLayerFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "ispn/internal/sched.(*WFQ).Enqueue", "ispn/internal/topology.(*Port).enqueue", "ispn/internal/sim.(*Engine).RunUntil", "main.main"}, "sched"},
		{[]string{"math/rand.seedrand", "ispn/internal/sim.DeriveRNG", "ispn/internal/scenario.(*churnRun).doArrival"}, "sim"},
		{[]string{"ispn/internal/source.(*CBR).Start.func1", "ispn/internal/sim.(*Engine).RunUntil"}, "source"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "main.main"}, "runtime"},
		{[]string{"runtime.mallocgc", "ispn/internal/core.(*Network).registerFlow"}, "core"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"ispn/internal/analysis.Run"}, "other"}, // a package under internal/ that is not a layer
		{[]string{"ispn.New", "main.runMillion"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is the little of the protobuf wire format the fixture profile needs.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field) << 3); p.varint(v) }
func (p *pb) msg(field int, m []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(m)))
	p.Write(m)
}

func TestCPUSharesFromAProfileFixture(t *testing.T) {
	strs := []string{"", "ispn/internal/sched.(*Unified).Dequeue", "ispn/internal/sim.(*Engine).RunUntil", "runtime.gcBgMarkWorker", "main.main", "runtime.memmove"}
	var prof pb
	for _, s := range strs {
		prof.msg(6, []byte(s))
	}
	for id := 1; id < len(strs); id++ { // function id = location id = string index
		var fn, line, loc pb
		fn.uint(1, uint64(id))
		fn.uint(2, uint64(id))
		prof.msg(5, fn.Bytes())
		line.uint(1, uint64(id))
		loc.uint(1, uint64(id))
		loc.msg(4, line.Bytes())
		if id == 5 { // memmove inlined into Dequeue: two lines, innermost first
			var outer pb
			outer.uint(1, 1)
			loc.msg(4, outer.Bytes())
		}
		prof.msg(4, loc.Bytes())
	}
	sample := func(nanos uint64, locs ...uint64) {
		var s, packedLocs, packedVals pb
		for _, l := range locs {
			packedLocs.varint(l)
		}
		packedVals.varint(1) // sample count
		packedVals.varint(nanos)
		s.msg(1, packedLocs.Bytes())
		s.msg(2, packedVals.Bytes())
		prof.msg(2, s.Bytes())
	}
	sample(60, 5, 2, 4) // memmove inlined in sched under sim -> sched
	sample(30, 2, 4)    // sim
	sample(10, 3)       // collector -> runtime
	sample(100, 4)      // benchmark's own code -> other

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	shares, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sched": 0.3, "sim": 0.15, "runtime": 0.05, "other": 0.5}
	sum := 0.0
	for layer, share := range shares {
		sum += share
		if math.Abs(share-want[layer]) > 1e-12 {
			t.Errorf("%s share = %v, want %v", layer, share, want[layer])
		}
	}
	if len(shares) != len(layers)+1 || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d shares summing to %v, want %d summing to 1", len(shares), sum, len(layers)+1)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.02, 1.00}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, base, []float64{1.01, 1.00, 1.02, 0.99, 1.01}, verdictOK},
		{"within bound", lower, base, []float64{1.08, 1.09, 1.07, 1.08, 1.09}, verdictOK},
		{"beyond bound", lower, base, []float64{1.12, 1.13, 1.11, 1.12, 1.14}, verdictWorse},
		{"noisy base", lower, []float64{0.99, 1.2, 1.5, 1.1, 1.3}, base, verdictUnresolved},
		{"noisy change", lower, base, []float64{0.95, 1.05, 1.5, 1.0, 1.3}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{1.8, 2.0, 2.4, 1.9, 2.2}, base, verdictOK},
		{"noisy set-up is judged on its figure", metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, []float64{1.0, 1.6, 2.5, 1.3, 1.9}, base, verdictOK},
		{"one fast repeat does not hide a slow median", lower, base, []float64{0.5, 1.2, 1.2, 1.2, 1.2}, verdictWorse},
		{"noisy and worse", lower, base, []float64{1.1, 1.3, 1.6, 1.2, 1.4}, verdictWorse},
		{"higher is better, fell", metricDef{Better: "higher", Bound: 0.05}, base, []float64{0.90, 0.91, 0.92, 0.90, 0.91}, verdictWorse},
		{"higher is better, rose", metricDef{Better: "higher", Bound: 0.05}, base, []float64{1.2, 1.21, 1.19, 1.2, 1.2}, verdictOK},
	}
	for _, c := range cases {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesRunsThatMeasuredSomethingElse(t *testing.T) {
	run := func(seed int64, n int) *runFile {
		return &runFile{Seed: seed, Workloads: []workloadResult{{Workload: "chain_batch", Repeats: n}}}
	}
	if err := sameMeasurement(run(1, repeats), run(1, repeats)); err != nil {
		t.Errorf("two runs of the same seed and repeat count refused: %v", err)
	}
	if sameMeasurement(run(1, repeats), run(2, repeats)) == nil {
		t.Error("runs of different seeds compared")
	}
	if sameMeasurement(run(1, repeats), run(1, repeats+1)) == nil || sameMeasurement(run(1, repeats-1), run(1, repeats)) == nil {
		t.Error("runs of different repeat counts compared")
	}
}

func TestSetupTimingLeavesTeardownOut(t *testing.T) {
	const pass, teardown = time.Millisecond, 2 * time.Millisecond
	built, dropped := 0, 0
	samples, err := timeSetup(nil, func() error {
		if built != dropped {
			t.Fatalf("pass %d began with %d of %d worlds torn down", built+1, dropped, built)
		}
		built++
		time.Sleep(pass)
		return nil
	}, func() {
		dropped++
		time.Sleep(teardown)
	})
	if err != nil || len(samples) != setupSamples {
		t.Fatalf("%d samples, error %v", len(samples), err)
	}
	if built != dropped+1 {
		t.Errorf("%d worlds built, %d torn down: the last one must survive for the run", built, dropped)
	}
	if m := median(samples); m < pass.Seconds() || m >= (pass+teardown).Seconds() {
		t.Errorf("a %v pass timed at %v s: the %v tear-down is inside the timed region", pass, m, teardown)
	}
}

func TestNormalizeArgs(t *testing.T) {
	cases := [][2][]string{
		{{"-trace"}, {"-trace=1"}},
		{{"--trace", "1", "--seed", "3"}, {"--trace", "1", "--seed", "3"}},
		{{"--trace", "0"}, {"--trace", "0"}},
		{{"-trace", "-workload", "serve_live"}, {"-trace=1", "-workload", "serve_live"}},
	}
	for _, c := range cases {
		if got := normalizeArgs(c[0]); !reflect.DeepEqual(got, c[1]) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c[0], got, c[1])
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON diff-checks the metrics and workloads
// this program prints against the root BENCHMARK.json the driver reads.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program accepts -seconds %d only", decl.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || !reflect.DeepEqual(decl.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", decl.Command, decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, program has %q", i, decl.Workloads[i].Name, w.name)
		}
		if why := decl.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("%s: why is %d characters, want 1 to 200", w.name, len(why))
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	diff := func(kind string, declared []metric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d in the catalogue", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if got := declared[i]; got != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: declared %+v, catalogue %+v", kind, i, got, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
		}
	}
	diff("end_to_end", decl.EndToEnd, endToEnd)
	perLayerNoBounds := append([]metricDef(nil), perLayer...)
	for i := range perLayerNoBounds {
		perLayerNoBounds[i].Bound = 0 // per-layer metrics carry no bound in BENCHMARK.json
	}
	diff("per_layer", decl.PerLayer, perLayerNoBounds)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	setup := endToEnd[0]
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s bound %v: want (0, 0.25] and setup_s to have the largest", d.Name, d.Bound)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", setup)
	}
}
