package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of the traced run, recorded by the benchmark
// around its own calls into the program (spans inside the program are a
// later issue). Parent is the id of the span that caused it, 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"` // duration minus the part child spans cover
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex // the trace-stream reader of serve_live records from its own goroutine
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Name: name, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// finish computes self times and returns the spans. Children of one span
// never overlap each other: the one concurrent span, serve_live's trace
// stream, is recorded as a root of its own.
func (t *tracer) finish() []span {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
	return t.spans
}

// durMS sums the durations of every span called name, in milliseconds.
func durMS(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e6
}

// spanDurationsMS lists the duration of every span called name.
func spanDurationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
