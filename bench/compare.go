package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

// Verdicts of one (workload, metric) pairing.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the change's samples (b) with the parent's (a) for one
// metric. It is worse when the reported figure moved the wrong way by more
// than the bound. Otherwise, when either side's run-to-run spread is wider than the
// bound the pairing is unresolved — not "unchanged" — unless every run of
// the change reads better than every run of the parent. setup_s is judged
// on its figures alone, as the driver judges it: sub-millisecond set-ups
// spread past any useful bound from one process to the next.
func judge(d metricDef, a, b []float64) (ratio float64, verdict string) {
	ratio = median(b) / median(a)
	worsening := ratio - 1
	if d.Better == "higher" {
		worsening = 1 - ratio
	}
	switch {
	case worsening > d.Bound:
		return ratio, verdictWorse
	case d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) && !allBetter(d, a, b):
		return ratio, verdictUnresolved
	}
	return ratio, verdictOK
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readRun(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Traced {
		return nil, fmt.Errorf("%s is a traced run; end-to-end metrics are compared from untraced runs only", path)
	}
	return &f, nil
}

func (m metricValue) samples() []float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []float64{m.Value}
}

// compareMain implements `bench compare A.json B.json`: A is the base
// (parent commit), B the change. One row per workload and end-to-end
// metric; exit status 1 on any "worse" or on a higher ops_failed_share.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (A is the base)")
		return 2
	}
	a, err := readRun(args[0])
	if err == nil {
		var b *runFile
		if b, err = readRun(args[1]); err == nil {
			if err = sameMeasurement(a, b); err == nil {
				return compareRuns(a, b)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
	return 2
}

// sameMeasurement refuses two runs that did not measure the same thing:
// another seed is another input, another repeat count another statistic.
func sameMeasurement(a, b *runFile) error {
	if a.Seed != b.Seed {
		return fmt.Errorf("seeds differ (%d and %d): the runs had different inputs", a.Seed, b.Seed)
	}
	for _, w := range append(append([]workloadResult(nil), a.Workloads...), b.Workloads...) {
		if w.Repeats != repeats {
			return fmt.Errorf("%s has %d repeats, this benchmark takes %d: the file is from another version of it", w.Workload, w.Repeats, repeats)
		}
	}
	return nil
}

func compareRuns(a, b *runFile) int {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\tB/A\tbound\tspread A\tspread B\tverdict")
	bad := false
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\t\tmissing from B\n", wa.Workload)
			bad = true
			continue
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), servedEndToEnd[:2]...) {
			ma, inA := wa.Metrics[d.Name]
			mb, inB := wb.Metrics[d.Name]
			if !inA || !inB {
				continue // the poll metrics exist on serve_live only
			}
			ratio, verdict := judge(d, ma.samples(), mb.samples())
			bad = bad || verdict == verdictWorse
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.3fx of %.6g\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wa.Workload, d.Name, ma.Value, d.Unit, mb.Value, d.Unit, ratio, ma.Value,
				100*d.Bound, 100*spread(ma.samples()), 100*spread(mb.samples()), verdict)
		}
		fa, fb := wa.failedShare(), wb.failedShare()
		verdict := verdictOK
		if fb > fa {
			verdict, bad = verdictWorse, true
		}
		fmt.Fprintf(tw, "%s\tops_failed_share\t%.6g ratio\t%.6g ratio\t%d of %d, base %d of %d\t0%%\t\t\t%s\n",
			wa.Workload, fa, fb, wb.Failed, wb.Attempted, wa.Failed, wa.Attempted, verdict)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	if bad {
		return 1
	}
	return 0
}
