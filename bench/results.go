package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricValue is one reported figure: the median of Samples (one per
// repeat), or a single reading when Samples is empty.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	N       int       `json:"n"` // raw measurements behind the figure (repeats, set-up passes, polls)
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one workload's outcome in a run.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Repeats   int                    `json:"repeats"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	traced    bool
}

// runFile is what a run writes to bench/out/<run>.json; `compare` reads two.
type runFile struct {
	Seed       int64            `json:"seed"`
	Traced     bool             `json:"traced"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

// set records a metric from its samples — one per repeat — and n, the number
// of raw measurements behind them.
func (r *workloadResult) set(d metricDef, samples []float64, n int) {
	v := metricValue{Value: median(samples), Unit: d.Unit, Better: d.Better, Bound: d.Bound, N: n}
	if len(samples) > 1 {
		v.Samples = samples
	}
	r.Metrics[d.Name] = v
}

func (r *workloadResult) absorb(c *childResult) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Failures = append(r.Failures, c.Failures...)
}

// sameReport is the output check every workload shares: a repeat (or the
// twin) must reproduce the first repeat's report bytes.
func (r *workloadResult) sameReport(what, got, want string) {
	r.Attempted++
	if got != want {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %s report differs from repeat 1 (sha %.12s, want %.12s)", r.Workload, what, got, want))
	}
}

func (r *workloadResult) failedShare() float64 {
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes `workload metric value unit n=<measurements>` lines, in
// catalogue order.
func (r *workloadResult) print(w io.Writer) {
	defs := perLayer
	if !r.traced {
		defs = append(append([]metricDef(nil), endToEnd...), servedEndToEnd...)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, d.Name, m.Value, m.Unit, m.N)
		}
	}
	if !r.traced {
		fmt.Fprintf(w, "%s ops_failed_share %.6g ratio n=%d\n", r.Workload, r.failedShare(), r.Attempted)
	}
}

// contractLine renders the result as the driver wants it: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
func (r *workloadResult) contractLine() string {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // every value is finite: runUntraced refuses a repeat without packet-hops
	}
	return string(line)
}

// runUntraced measures a workload with tracing off: the repeats, each in its
// own child, then the twin for the byte-identity check.
func runUntraced(w *workload, seed int64) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Metrics: map[string]metricValue{}}
	var setup, wall, nsPerHop, rss, p50, p95 []float64
	passes, polls := 0, 0
	var first *childResult
	for res.Repeats < repeats {
		c, err := spawn(w, seed, "run")
		if err != nil {
			return nil, err
		}
		if c.PktHops <= 0 || c.WallS <= 0 {
			return nil, fmt.Errorf("%s: a repeat measured %d packet-hops in %v s %v", w.name, c.PktHops, c.WallS, c.Failures)
		}
		res.Repeats++
		res.absorb(c)
		if first == nil {
			first = c
		} else {
			res.sameReport(fmt.Sprintf("repeat %d", res.Repeats), c.ReportSHA, first.ReportSHA)
		}
		setup = append(setup, median(c.SetupS))
		passes += len(c.SetupS)
		polls += len(c.PollMS)
		wall = append(wall, c.WallS)
		nsPerHop = append(nsPerHop, c.WallS/float64(c.PktHops)*1e9)
		rss = append(rss, float64(c.PeakRSS))
		if len(c.PollMS) > 0 {
			p50 = append(p50, median(c.PollMS))
			p95 = append(p95, percentileOr0(c.PollMS, 0.95))
		}
	}
	if w.hasTwin {
		t, err := spawn(w, seed, "twin")
		if err != nil {
			return nil, err
		}
		res.absorb(t)
		res.sameReport("twin", t.ReportSHA, first.ReportSHA)
	}
	res.set(endToEnd[0], setup, passes)
	for i, samples := range [][]float64{wall, nsPerHop, rss} {
		res.set(endToEnd[i+1], samples, res.Repeats)
	}
	if len(p50) > 0 {
		res.set(servedEndToEnd[0], p50, polls)
		res.set(servedEndToEnd[1], p95, polls)
	}
	for name, m := range res.Metrics {
		if !(m.Value > 0) {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %s measured %v", w.name, name, m.Value))
		}
	}
	return res, nil
}

// runTraced produces the per-layer metrics: one untraced repeat as the base
// for tracing overhead, one traced repeat (spans, CPU profile, counters),
// the twin, and the probes shaped by what the traced repeat observed. None
// of its numbers feed an end-to-end metric.
func runTraced(w *workload, seed int64) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Metrics: map[string]metricValue{}, traced: true, Repeats: 1}
	base, err := spawn(w, seed, "run")
	if err != nil {
		return nil, err
	}
	tr, err := spawn(w, seed, "traced")
	if err != nil {
		return nil, err
	}
	res.absorb(base)
	res.absorb(tr)
	res.sameReport("traced repeat", tr.ReportSHA, base.ReportSHA)
	layer := tr.Layer
	layer["trace.overhead_share"] = tr.WallS/base.WallS - 1
	if w.hasTwin {
		t, err := spawn(w, seed, "twin")
		if err != nil {
			return nil, err
		}
		res.absorb(t)
		res.sameReport("twin", t.ReportSHA, base.ReportSHA)
		switch w.name {
		case "mesh_sharded":
			layer["sim.shard_speedup_x"] = t.WallS / base.WallS
		case "serve_live":
			layer["serve.overhead_x"] = base.WallS / t.WallS
		}
	}
	shape, err := json.Marshal(tr.Shape)
	if err != nil {
		return nil, err
	}
	probes, err := spawn(nil, seed, "probes", "-shape", string(shape))
	if err != nil {
		return nil, err
	}
	for name, v := range probes.Layer {
		layer[name] = v
	}
	layer["ops_failed_share"] = res.failedShare()

	var unknown []string
	for name := range layer {
		if !isPerLayer(name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("%s: metrics not in the catalogue: %s", w.name, strings.Join(unknown, ", "))
	}
	for _, d := range perLayer {
		res.set(d, []float64{layer[d.Name]}, 1) // a layer the workload does not exercise reads 0
	}
	return res, nil
}
