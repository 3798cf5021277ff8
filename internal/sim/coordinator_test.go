package sim

import (
	"fmt"
	"math"
	"testing"
)

// TestSameInstantKeyOrdering pins the canonical same-time order: control,
// then data in insertion order, then deliveries in port-key order.
func TestSameInstantKeyOrdering(t *testing.T) {
	e := New()
	var got []string
	rec := func(label string) func(any) {
		return func(any) { got = append(got, label) }
	}
	e.AtCallKeyed(1, KeyDelivery+3, rec("del3"), nil)
	e.AtCallKeyed(1, KeyDelivery, rec("del0"), nil)
	e.At(1, func() { got = append(got, "data1") })
	e.AtControl(1, func() { got = append(got, "ctrl") })
	e.At(1, func() { got = append(got, "data2") })
	e.RunUntil(1)
	want := "[ctrl data1 data2 del0 del3]"
	if fmt.Sprint(got) != want {
		t.Fatalf("same-instant order = %v, want %v", got, want)
	}
}

// TestKeyRangePanics guards the composite tie-break against key overflow.
func TestKeyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("key above maxKey did not panic")
		}
	}()
	New().AtCallKeyed(1, maxKey+1, func(any) {}, nil)
}

// TestRunUntilBefore checks the half-open window primitive: events strictly
// before t fire, time-t events stay pending, and the clock still lands on t.
func TestRunUntilBefore(t *testing.T) {
	e := New()
	var got []float64
	for _, at := range []float64{1, 2, 3} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntilBefore(2)
	if fmt.Sprint(got) != "[1]" || e.Now() != 2 {
		t.Fatalf("after RunUntilBefore(2): fired %v now %v, want [1] 2", got, e.Now())
	}
	if nt := e.NextEventTime(); nt != 2 {
		t.Fatalf("NextEventTime = %v, want 2", nt)
	}
	e.RunUntil(3)
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("after RunUntil(3): fired %v, want [1 2 3]", got)
	}
	if !math.IsInf(e.NextEventTime(), 1) {
		t.Fatalf("empty queue NextEventTime = %v, want +Inf", e.NextEventTime())
	}
}

// xworld is a miniature two-node world used to run one workload both
// sequentially and sharded. Each logical node logs its events to its own
// slice and sends timestamped messages to the other node with a fixed
// propagation delay, scheduling the arrival straight into the peer's engine
// the way a remote port does.
type xworld struct {
	engA, engB *Engine // the same engine in sequential mode
	logA, logB []string
	logC       []string // control-engine log

	lookahead float64
}

func (w *xworld) noteA(label string) {
	w.logA = append(w.logA, fmt.Sprintf("%.4f %s", w.engA.Now(), label))
}
func (w *xworld) noteB(label string) {
	w.logB = append(w.logB, fmt.Sprintf("%.4f %s", w.engB.Now(), label))
}

// build schedules the workload: periodic ticks on both nodes, each tick
// sending to the peer; control ticks interleave at coinciding timestamps,
// and the one at 0.5 shortens the propagation delay (a coordinator that
// kept the old, wider lookahead would deliver the later sends late).
func (w *xworld) build(ctrl *Engine) {
	sendAB := func(label string) {
		w.engB.AtCallKeyed(w.engA.Now()+w.lookahead, KeyDelivery+0, func(a any) { w.noteB("recv " + a.(string)) }, label)
	}
	sendBA := func(label string) {
		w.engA.AtCallKeyed(w.engB.Now()+w.lookahead, KeyDelivery+1, func(a any) { w.noteA("recv " + a.(string)) }, label)
	}
	var tickA, tickB func()
	tickA = func() {
		w.noteA("tick")
		sendAB(fmt.Sprintf("a@%.4f", w.engA.Now()))
		if w.engA.Now() < 1.0 {
			w.engA.Schedule(0.1, tickA)
		}
	}
	tickB = func() {
		w.noteB("tick")
		sendBA(fmt.Sprintf("b@%.4f", w.engB.Now()))
		if w.engB.Now() < 1.0 {
			w.engB.Schedule(0.15, tickB)
		}
	}
	w.engA.At(0.1, tickA)
	w.engB.At(0.15, tickB)
	for _, at := range []float64{0.25, 0.5, 0.75, 1.0} {
		at := at
		ctrl.AtControl(at, func() { w.logC = append(w.logC, fmt.Sprintf("%.4f ctrl", at)) })
	}
	ctrl.AtControl(0.5, func() { w.lookahead = 0.02 })
}

// runSequential runs the workload on one engine to the horizon.
func runSequential(horizon float64) *xworld {
	eng := New()
	w := &xworld{engA: eng, engB: eng, lookahead: 0.05}
	w.build(eng)
	eng.RunUntil(horizon)
	return w
}

// runSharded runs it on two shard engines under a coordinator, optionally in
// several Run segments (resumability is part of the contract).
func runSharded(segments ...float64) *xworld {
	ctrl := New()
	w := &xworld{engA: New(), engB: New(), lookahead: 0.05}
	w.build(ctrl)
	coord := NewCoordinator(ctrl, []*Engine{w.engA, w.engB}, func() float64 { return w.lookahead })
	for _, to := range segments {
		coord.Run(to)
	}
	return w
}

// TestCoordinatorMatchesSequential: same workload, same per-node event logs,
// whether run on one engine or two coordinated shards — including the
// same-timestamp collisions at 0.3, 0.6, 0.9 (both nodes tick) and at the
// control instants.
func TestCoordinatorMatchesSequential(t *testing.T) {
	seq := runSequential(1.2)
	par := runSharded(1.2)
	if fmt.Sprint(par.logA) != fmt.Sprint(seq.logA) {
		t.Errorf("node A log differs:\nsequential: %v\nsharded:    %v", seq.logA, par.logA)
	}
	if fmt.Sprint(par.logB) != fmt.Sprint(seq.logB) {
		t.Errorf("node B log differs:\nsequential: %v\nsharded:    %v", seq.logB, par.logB)
	}
	if fmt.Sprint(par.logC) != fmt.Sprint(seq.logC) {
		t.Errorf("control log differs:\nsequential: %v\nsharded:    %v", seq.logC, par.logC)
	}
	if len(seq.logA) == 0 || len(seq.logB) == 0 {
		t.Fatal("workload produced no events")
	}
}

// TestCoordinatorSegmentedRun: Run(0.6) then Run(1.2) equals one Run(1.2) —
// cross-shard sends in flight across the segment boundary are not lost.
func TestCoordinatorSegmentedRun(t *testing.T) {
	one := runSharded(1.2)
	two := runSharded(0.6, 1.2)
	if fmt.Sprint(two.logA) != fmt.Sprint(one.logA) || fmt.Sprint(two.logB) != fmt.Sprint(one.logB) || fmt.Sprint(two.logC) != fmt.Sprint(one.logC) {
		t.Errorf("segmented run diverged:\none-shot: %v %v %v\nsegments: %v %v %v",
			one.logA, one.logB, one.logC, two.logA, two.logB, two.logC)
	}
	if got := two.engA.Now(); got != 1.2 {
		t.Errorf("shard clock after segments = %v, want 1.2", got)
	}
}

// TestCoordinatorLookaheadGuard: a non-positive lookahead would make windows
// zero-width; the run refuses it at the barrier instead of spinning.
func TestCoordinatorLookaheadGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead did not panic")
		}
	}()
	NewCoordinator(New(), []*Engine{New()}, func() float64 { return 0 }).Run(1)
}

// TestCoordinatorInfiniteLookahead: with no cross-shard links the lookahead
// is +Inf and windows stretch to the next control event or the horizon.
func TestCoordinatorInfiniteLookahead(t *testing.T) {
	ctrl := New()
	shard := New()
	var got []string
	shard.At(0.5, func() { got = append(got, "data") })
	ctrl.AtControl(0.5, func() { got = append(got, "ctrl") })
	coord := NewCoordinator(ctrl, []*Engine{shard}, func() float64 { return math.Inf(1) })
	coord.Run(1.0)
	if fmt.Sprint(got) != "[ctrl data]" {
		t.Fatalf("order = %v, want [ctrl data]", got)
	}
	if ctrl.Now() != 1.0 || shard.Now() != 1.0 {
		t.Fatalf("clocks = %v/%v, want 1.0/1.0", ctrl.Now(), shard.Now())
	}
}
