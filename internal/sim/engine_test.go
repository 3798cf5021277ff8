package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{3, 1, 2, 0.5} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.Run()
	want := []float64{0.5, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := New()
	e.Schedule(2.5, func() {
		if e.Now() != 2.5 {
			t.Errorf("Now() inside event = %v, want 2.5", e.Now())
		}
	})
	e.Run()
	if e.Now() != 2.5 {
		t.Fatalf("Now() after run = %v, want 2.5", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(5, func() {
		e.Schedule(-3, func() {
			fired = true
			if e.Now() != 5 {
				t.Errorf("negative-delay event fired at %v, want 5", e.Now())
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestAtBeforeNowClamps(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		e.At(3, func() {
			if e.Now() != 10 {
				t.Errorf("past event fired at %v, want 10", e.Now())
			}
		})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(2.5)
	if len(got) != 2 {
		t.Fatalf("ran %d events, want 2", len(got))
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", e.Now())
	}
	e.RunUntil(10)
	if len(got) != 4 {
		t.Fatalf("ran %d events total, want 4", len(got))
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(2.0, func() { fired = true })
	e.RunUntil(2.0)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(float64(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("ran %d events after resume, want 10", count)
	}
}

// A reserved slot is reached once the run passes its position, including by
// a run boundary, and stays reached for a control event at the same instant
// that fires afterwards — injected between steps, or scheduled by a later
// event. The event that fires last is then before the slot in key order, so
// the answer cannot come from the current event's position.
func TestSlotReached(t *testing.T) {
	e := New()
	if !e.Reached(Slot{}) {
		t.Fatal("the zero Slot is not reached")
	}
	s := e.Reserve(1, KeyData)
	after := e.Reserve(1, KeyDelivery)
	var got []bool
	note := func() { got = append(got, e.Reached(s), e.Reached(after)) }
	e.At(1, func() {
		note()
		e.AtControl(1, note) // fires next, behind this event in key order
	})
	e.RunUntil(math.Nextafter(1, 0)) // a boundary just short of the slots
	note()
	e.RunUntil(1)
	note()
	e.AtControl(1, note) // injected between steps
	e.RunUntil(2)
	want := []bool{false, false, true, false, true, false, true, true, true, true}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Reached = %v, want %v", got, want)
	}
	if e.Processed() != 3 || e.Pending() != 0 {
		t.Fatalf("processed %d, pending %d: a slot is not an event", e.Processed(), e.Pending())
	}
}

// A claimed slot fires at the reserved position: after an event scheduled
// for the same instant and key before the reserve, before one scheduled
// after it.
func TestSlotClaimFiresInPlace(t *testing.T) {
	e := New()
	var got []string
	e.At(1, func() { got = append(got, "before") })
	s := e.Reserve(1, KeyData)
	e.At(1, func() { got = append(got, "after") })
	e.Claim(s, func(any) { got = append(got, "slot") }, nil)
	e.Run()
	if fmt.Sprint(got) != "[before slot after]" {
		t.Fatalf("order %v", got)
	}
	mustPanic(t, "claim a reached slot", func() { e.Claim(s, func(any) {}, nil) })
	mustPanic(t, "reserve at the clock", func() { e.Reserve(e.Now(), KeyData) })
	mustPanic(t, "reserve at NaN", func() { e.Reserve(math.NaN(), KeyData) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed() = %d, want 5", e.Processed())
	}
}

func TestNaNDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN delay did not panic")
		}
	}()
	New().Schedule(math.NaN(), func() {})
}

// An absolute NaN time is as much a simulation bug as a NaN delay: every
// entry point panics and leaves the queue untouched, rather than filing the
// event somewhere arbitrary in the order.
func TestNaNTimePanics(t *testing.T) {
	nop := func(any) {}
	for _, c := range []struct {
		name string
		at   func(e *Engine)
	}{
		{"At", func(e *Engine) { e.At(math.NaN(), func() {}) }},
		{"AtControl", func(e *Engine) { e.AtControl(math.NaN(), func() {}) }},
		{"AtCall", func(e *Engine) { e.AtCall(math.NaN(), nop, nil) }},
		{"AtCallKeyed", func(e *Engine) { e.AtCallKeyed(math.NaN(), KeyDelivery, nop, nil) }},
	} {
		name, at := c.name, c.at
		e := New()
		e.At(1, func() {})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NaN) did not panic", name)
				}
			}()
			at(e)
		}()
		if e.Pending() != 1 {
			t.Errorf("%s(NaN) left Pending() = %d, want 1", name, e.Pending())
		}
		if e.Run(); e.Now() != 1 {
			t.Errorf("%s(NaN) moved the pending event to %v, want 1", name, e.Now())
		}
	}
}

// -0 is below no clock but is not the clock either: it is clamped to now, so
// it fires on the clock in insertion order with everything else due then
// (its raw bits would sort after every other time), and the clock never
// reads a negative zero.
func TestNegativeZeroTimeClampsToClock(t *testing.T) {
	negZero := math.Copysign(0, -1)
	e := New()
	var got []string
	e.At(5, func() { got = append(got, "5") })
	e.At(negZero, func() {
		got = append(got, "-0")
		if math.Signbit(e.Now()) {
			t.Error("the clock reads -0")
		}
	})
	e.At(0, func() { got = append(got, "0") })
	e.At(2, func() {
		e.At(negZero, func() {
			got = append(got, "-0@"+strconv.FormatFloat(e.Now(), 'g', -1, 64))
		})
		e.At(2, func() { got = append(got, "2") })
	})
	e.Run()
	want := "[-0 0 -0@2 2 5]"
	if s := fmt.Sprint(got); s != want {
		t.Fatalf("fired %s, want %s", s, want)
	}
	if math.Signbit(e.Now()) {
		t.Fatal("clock went negative")
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	New().Schedule(1, nil)
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine processes all of them.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []float64) bool {
		e := New()
		var fired []float64
		n := 0
		for _, d := range delays {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			d = math.Abs(d)
			n++
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmoke(t *testing.T) {
	e := New()
	if e.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestScheduleCallInterleavesWithSchedule(t *testing.T) {
	e := New()
	var got []string
	e.Schedule(2, func() { got = append(got, "closure@2") })
	e.ScheduleCall(1, func(arg any) { got = append(got, arg.(string)) }, "call@1")
	e.ScheduleCall(2, func(arg any) { got = append(got, arg.(string)) }, "call@2")
	e.Run()
	want := []string{"call@1", "closure@2", "call@2"}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEventNodesAreRecycled(t *testing.T) {
	e := New()
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			e.Schedule(float64(i), func() {})
		}
		e.Run()
	}
	if len(e.free) == 0 {
		t.Fatal("free list empty after events fired")
	}
	if len(e.blocks) != 1 {
		t.Fatalf("engine grew %d node blocks for 100 concurrent events, want 1 (nodes not reused)", len(e.blocks))
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	var tick func()
	tick = func() {
		e.Schedule(0.001, tick)
	}
	e.Schedule(0, tick)
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 0.001)
	}
}

// BenchmarkHold is the classic hold model of a pending-event set: with n
// events pending, each op fires the earliest and schedules one replacement
// an exponential delay later, so the queue size stays n. The sizes are
// chain_batch's and mesh_sharded's median pending counts and a
// million_members-scale heap. The delays are drawn up front so the op times
// the engine alone. The benchmark fails itself if a warmed-up op allocates;
// `make bench-smoke` runs it at 1x for that check.
func BenchmarkHold(b *testing.B) {
	for _, n := range []int{32, 350, 2000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			delays := make([]float64, 4096)
			for i := range delays {
				delays[i] = rng.ExpFloat64()
			}
			e := New()
			k := 0
			var hold func(any)
			hold = func(any) {
				e.ScheduleCall(delays[k%len(delays)], hold, nil)
				k++
				e.Stop()
			}
			for i := 0; i < n; i++ {
				e.ScheduleCall(delays[i%len(delays)], hold, nil)
			}
			step := e.Run
			for i := 0; i < 4*n; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if a := testing.AllocsPerRun(1000, step); a != 0 {
				b.Fatalf("a steady-state hold op allocates %v times, want 0", a)
			}
			if e.Pending() != n {
				b.Fatalf("Pending() = %d, want %d", e.Pending(), n)
			}
		})
	}
}

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
