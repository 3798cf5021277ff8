package fuzz

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ispn/internal/scenario"
)

// errInadmissible marks a generated world whose compile-time flows were
// refused by admission control (a statically over-committed mix, not a
// simulator bug). The driver skips such worlds instead of failing.
var errInadmissible = errors.New("world statically inadmissible")

// Config parameterizes a fuzz run.
type Config struct {
	// N is the number of worlds to generate and check.
	N int
	// Seed is the base seed; case i uses Seed+i, so any failing case
	// replays alone with `-n 1 -seed <case seed>`.
	Seed int64
	// Dir, when non-empty, receives a minimized .ispn repro for every
	// failing case.
	Dir string
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Failure is one failing case, already minimized.
type Failure struct {
	Seed   int64  // case seed (replay: ispnsim fuzz -n 1 -seed <Seed>)
	Reason string // first violation or divergence of the minimized world
	Source []byte // minimized .ispn
	Path   string // corpus file written under Config.Dir ("" if Dir unset)
}

// Summary is the outcome of a fuzz run.
type Summary struct {
	Cases    int // worlds generated and checked
	Skipped  int // worlds whose static flow mix admission refused outright
	Failures []Failure
}

// Run generates Config.N worlds and checks each one: compiled and run
// sequentially and sharded, both under the invariant oracle, reports
// compared byte for byte. Failures are minimized and (with Config.Dir set)
// written to the corpus. The error is non-nil only for harness problems
// (e.g. an unwritable corpus dir), never for failing cases.
func (cfg Config) Run() (*Summary, error) {
	sum := &Summary{}
	for i := 0; i < cfg.N; i++ {
		w := NewWorld(cfg.Seed + int64(i))
		err := cfg.runCase(w)
		sum.Cases++
		switch {
		case err == nil:
		case errors.Is(err, errInadmissible):
			sum.Skipped++
		default:
			f, err := cfg.fail(w, err)
			if err != nil {
				return sum, err
			}
			sum.Failures = append(sum.Failures, f)
		}
	}
	return sum, nil
}

// fail minimizes a world that failed with err and, with Config.Dir set,
// writes the repro to the corpus; the error is that write's.
func (cfg Config) fail(w *World, err error) (Failure, error) {
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "case seed %d FAILED: %v\n", w.Seed, err)
		fmt.Fprintf(cfg.Log, "  minimizing…\n")
	}
	min, minErr := cfg.Minimize(w)
	f := Failure{Seed: w.Seed, Reason: minErr.Error(), Source: min.Render()}
	if sharded, ok := minErr.(shardedFailure); ok {
		f.Source = sharded.src
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return f, err
		}
		f.Path = filepath.Join(cfg.Dir, fmt.Sprintf("seed%d.ispn", w.Seed))
		if err := os.WriteFile(f.Path, f.Source, 0o644); err != nil {
			return f, err
		}
	}
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, "  minimized to %d flow(s), %d event(s): %v\n",
			len(min.Flows), len(min.Events), minErr)
		if f.Path != "" {
			fmt.Fprintf(cfg.Log, "  repro written to %s\n", f.Path)
		}
		fmt.Fprintf(cfg.Log, "  replay: ispnsim fuzz -n 1 -seed %d\n", w.Seed)
	}
	return f, nil
}

// shardedFailure is a failure only the sharded twin shows. Its repro is the
// twin's text, Net line and all: the corpus file run alone shows a sharded
// violation, and run beside its copy without the shards argument, a
// divergence.
type shardedFailure struct {
	error
	src []byte
}

// runCase renders one world twice — as generated, and as its sharded twin,
// the same text with shards 2-4 (derived from the case seed) written into
// its Net line — then compiles and runs both under the invariant oracle and
// requires byte-identical reports. Nil means the case passed.
func (cfg Config) runCase(w *World) error {
	name := fmt.Sprintf("fuzz-seed%d", w.Seed)
	run := func(src []byte) (*scenario.Report, error) {
		f, err := scenario.Parse(name, src)
		if err != nil {
			return nil, fmt.Errorf("generator produced an unparsable world: %w", err)
		}
		s, err := scenario.Compile(f, scenario.Options{Check: true})
		if err != nil {
			if strings.Contains(err.Error(), "rejected") {
				return nil, fmt.Errorf("%w: %v", errInadmissible, err)
			}
			return nil, fmt.Errorf("generator produced an uncompilable world: %w", err)
		}
		return s.Run(), nil
	}
	seq, err := run(w.Render())
	if err != nil {
		return err
	}
	if seq.Check.Failed() {
		return fmt.Errorf("sequential: %s", seq.Check.Violations[0])
	}
	shards := 2 + int(w.Seed%3)
	src := w.render(shards)
	shd, err := run(src)
	if err != nil {
		return shardedFailure{err, src}
	}
	if shd.Check.Failed() {
		return shardedFailure{fmt.Errorf("%d shards: %s", shards, shd.Check.Violations[0]), src}
	}
	if a, b := seq.Format(), shd.Format(); a != b {
		return shardedFailure{fmt.Errorf("sequential and %d-shard reports diverge: %s", shards, firstDiff(a, b)), src}
	}
	return nil
}

// firstDiff locates the first differing line of two reports.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// Minimize greedily shrinks a failing world while it keeps failing: drop
// timeline events, drop the churn, drop flows (with their events), then
// halve the horizon. Returns the smallest failing world found and its
// failure. If the input does not fail, it is returned unchanged with a nil
// error — callers pass known failures.
func (cfg Config) Minimize(w *World) (*World, error) {
	err := cfg.runCase(w)
	if err == nil {
		return w, nil
	}
	// Drop events, last first (later events depend on earlier state more
	// often than the reverse — restores on fails, removes on arrivals).
	for i := len(w.Events) - 1; i >= 0; i-- {
		c := w.Clone()
		c.Events = append(c.Events[:i], c.Events[i+1:]...)
		if e := cfg.runCase(c); e != nil {
			w, err = c, e
		}
	}
	if w.Churn != nil {
		c := w.Clone()
		c.Churn = nil
		if e := cfg.runCase(c); e != nil {
			w, err = c, e
		}
	}
	for i := len(w.Flows) - 1; i >= 0; i-- {
		if len(w.Flows) == 1 {
			break
		}
		c := w.Clone()
		name := c.Flows[i].Name
		c.Flows = append(c.Flows[:i], c.Flows[i+1:]...)
		var evs []Event
		for _, ev := range c.Events {
			if ev.Flow != name {
				evs = append(evs, ev)
			}
		}
		c.Events = evs
		if e := cfg.runCase(c); e != nil {
			w, err = c, e
		}
	}
	for w.Horizon > 2 {
		c := w.Clone()
		c.Horizon = float64(int(w.Horizon) / 2)
		// Anything scheduled past the new horizon would be a compile
		// error; drop it with the time it lived in.
		var flows []Flow
		for _, f := range c.Flows {
			if f.At < c.Horizon {
				flows = append(flows, f)
			}
		}
		c.Flows = flows
		var evs []Event
		for _, ev := range c.Events {
			if ev.At <= c.Horizon {
				evs = append(evs, ev)
			}
		}
		c.Events = evs
		if len(c.Flows) == 0 {
			break
		}
		e := cfg.runCase(c)
		if e == nil {
			break
		}
		w, err = c, e
	}
	return w, err
}
