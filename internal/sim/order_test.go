package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The differential order test: a byte string decodes into a program of
// schedules, cancels, reads and run windows, and the program runs once on an
// Engine and once on sortedModel, a slice searched linearly for the least
// (time, key, insertion index). The two logs — every firing with its clock,
// every Pending/NextEventTime read, the clock after every window — must be
// equal. The engine's order is a strict total order, so any correct priority
// queue produces the model's log exactly.

// orderAPI is the surface a program drives: an Engine or the model.
type orderAPI interface {
	now() float64
	// schedule issues one event by entry point kind (0 Schedule with x a
	// delay, 1 At, 2 AtControl, 3 AtCallKeyed, x absolute) and returns
	// its cancel handle, or -1 for the handle-less AtCallKeyed.
	schedule(kind int, x float64, key uint32, fn func()) int
	cancel(h int)
	pending() int
	next() float64
	runUntil(t float64)
	runUntilBefore(t float64)
	stop()
}

type engineAPI struct {
	e   *Engine
	evs []Event
}

func (a *engineAPI) now() float64 { return a.e.Now() }

func (a *engineAPI) schedule(kind int, x float64, key uint32, fn func()) int {
	var ev Event
	switch kind {
	case 0:
		ev = a.e.Schedule(x, fn)
	case 1:
		ev = a.e.At(x, fn)
	case 2:
		ev = a.e.AtControl(x, fn)
	default:
		a.e.AtCallKeyed(x, key, func(any) { fn() }, nil)
		return -1
	}
	a.evs = append(a.evs, ev)
	return len(a.evs) - 1
}

func (a *engineAPI) cancel(h int)             { a.e.Cancel(a.evs[h]) }
func (a *engineAPI) pending() int             { return a.e.Pending() }
func (a *engineAPI) next() float64            { return a.e.NextEventTime() }
func (a *engineAPI) runUntil(t float64)       { a.e.RunUntil(t) }
func (a *engineAPI) runUntilBefore(t float64) { a.e.RunUntilBefore(t) }
func (a *engineAPI) stop()                    { a.e.Stop() }

// sortedModel is the reference: the engine's documented semantics with the
// pending set kept as an unordered slice.
type sortedModel struct {
	clock   float64
	ins     uint64
	handles int
	stopped bool
	pend    []modelEvent
}

type modelEvent struct {
	t   float64
	key uint32
	ins uint64
	h   int
	fn  func()
}

func (m *sortedModel) now() float64 { return m.clock }

func (m *sortedModel) schedule(kind int, x float64, key uint32, fn func()) int {
	t := x
	switch kind {
	case 0:
		t = m.clock + math.Max(x, 0)
		key = KeyData
	case 1:
		key = KeyData
	case 2:
		key = KeyControl
	}
	if t < m.clock {
		t = m.clock
	}
	if t == 0 {
		t = 0 // -0 fires on the clock
	}
	h := -1
	if kind != 3 {
		h = m.handles
		m.handles++
	}
	m.pend = append(m.pend, modelEvent{t: t, key: key, ins: m.ins, h: h, fn: fn})
	m.ins++
	return h
}

func (m *sortedModel) cancel(h int) {
	for i, ev := range m.pend {
		if ev.h == h {
			m.pend = append(m.pend[:i], m.pend[i+1:]...)
			return
		}
	}
}

func (m *sortedModel) pending() int { return len(m.pend) }

// least returns the index of the first event in (time, key, insertion)
// order, or -1.
func (m *sortedModel) least() int {
	best := -1
	for i, ev := range m.pend {
		if best < 0 {
			best = i
			continue
		}
		b := m.pend[best]
		if ev.t < b.t || ev.t == b.t && (ev.key < b.key || ev.key == b.key && ev.ins < b.ins) {
			best = i
		}
	}
	return best
}

func (m *sortedModel) next() float64 {
	if i := m.least(); i >= 0 {
		return m.pend[i].t
	}
	return math.Inf(1)
}

func (m *sortedModel) runThrough(through, t float64) {
	m.stopped = false
	for !m.stopped {
		i := m.least()
		if i < 0 || m.pend[i].t > through {
			break
		}
		ev := m.pend[i]
		m.pend = append(m.pend[:i], m.pend[i+1:]...)
		m.clock = math.Max(m.clock, ev.t)
		ev.fn()
	}
	if !m.stopped && !math.IsInf(t, 1) && t > m.clock {
		m.clock = t
	}
}

func (m *sortedModel) runUntil(t float64) { m.runThrough(t, t) }
func (m *sortedModel) runUntilBefore(t float64) {
	m.runThrough(math.Nextafter(t, math.Inf(-1)), t)
}
func (m *sortedModel) stop() { m.stopped = true }

// orderProgram interprets a byte string against an orderAPI. Bytes are
// consumed both by top-level ops and by callbacks as they fire, so two
// implementations that fire in the same order read the same program; past
// the end every byte reads as zero (a callback that does nothing).
type orderProgram struct {
	data    []byte
	pos     int
	api     orderAPI
	handles []int // every cancel handle issued: pending, fired, cancelled
	serial  int   // events scheduled so far (the budget)
	log     strings.Builder
}

// orderBudget caps the events one program schedules, so callbacks that
// schedule two children cannot cascade without end.
const orderBudget = 400

func (p *orderProgram) next() byte {
	if p.pos >= len(p.data) {
		return 0
	}
	b := p.data[p.pos]
	p.pos++
	return b
}

// quarter maps a byte to a small multiple of 0.25 s (many exact ties), or
// now and then to an inexact step.
func quarter(b byte) float64 {
	if b%8 == 7 {
		return 0.1
	}
	return float64(b%8) * 0.25
}

var orderKeys = [...]uint32{KeyControl, KeyData, KeyDelivery, KeyDelivery + 1, KeyDelivery + 7}

// scheduleOne decodes and issues one event.
func (p *orderProgram) scheduleOne() {
	b, tb := p.next(), p.next()
	kind := int(b & 3)
	key := orderKeys[int(b>>2)%len(orderKeys)]
	var x float64
	switch {
	case kind == 0:
		x = quarter(tb) - 0.25 // a negative delay clamps to zero
	case tb%16 == 15:
		x = math.Copysign(0, -1)
	default:
		x = p.api.now() + quarter(tb) - 0.5 // the past clamps to now
	}
	id := p.serial
	p.serial++
	var self int
	self = p.api.schedule(kind, x, key, func() { p.fire(id, self) })
	if self >= 0 {
		p.handles = append(p.handles, self)
	}
}

// fire is every event's callback: log the firing, then act on one byte —
// read Pending/NextEventTime, cancel a handle (its own, or any issued),
// schedule 0, 1 or 2 events, and perhaps Stop.
func (p *orderProgram) fire(id, self int) {
	p.logf("f%d@%s", id, ftoa(p.api.now()))
	c := p.next()
	children := int(c % 3)
	if p.serial+children > orderBudget {
		children = 0
	}
	observe, cancel, cancelLate := c>>2&1 != 0, c>>3&1 != 0, c>>4&1 != 0
	if observe {
		p.observe()
	}
	if cancel && !cancelLate {
		p.cancelOne(self)
	}
	for range children {
		p.scheduleOne()
	}
	if cancel && cancelLate {
		p.cancelOne(self)
	}
	if observe {
		p.observe()
	}
	if c>>5 == 7 {
		p.api.stop()
	}
}

func (p *orderProgram) cancelOne(self int) {
	b := p.next()
	switch {
	case b == 0 && self >= 0:
		p.api.cancel(self)
	case len(p.handles) > 0:
		p.api.cancel(p.handles[int(b)%len(p.handles)])
	}
}

func (p *orderProgram) observe() {
	p.logf("p%d n%s", p.api.pending(), ftoa(p.api.next()))
}

func (p *orderProgram) logf(format string, args ...any) {
	fmt.Fprintf(&p.log, format+"\n", args...)
}

// ftoa formats a time for the log. The two zeros print alike: an engine may
// hold either for an event on a zero clock.
func ftoa(f float64) string {
	if f == 0 {
		f = 0
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// run executes the whole program and returns its log.
func (p *orderProgram) run() string {
	for p.pos < len(p.data) {
		b := p.next()
		switch b % 7 {
		case 0, 1, 2:
			p.scheduleOne()
		case 3:
			p.cancelOne(-1)
		case 4:
			p.api.runUntil(p.api.now() + quarter(p.next()))
		case 5:
			p.api.runUntilBefore(p.api.now() + quarter(p.next()))
		case 6:
			p.api.runUntil(math.Inf(1))
		}
		p.logf("top %s", ftoa(p.api.now()))
		p.observe()
	}
	// Drain: Stop may have cut a run short, and the budget bounds the
	// cascade.
	for p.api.pending() > 0 {
		p.api.runUntil(math.Inf(1))
	}
	p.logf("end %s", ftoa(p.api.now()))
	return p.log.String()
}

// checkOrder runs data on an Engine and on the model and fails on the first
// differing log line.
func checkOrder(t *testing.T, data []byte) {
	t.Helper()
	got := (&orderProgram{data: data, api: &engineAPI{e: New()}}).run()
	want := (&orderProgram{data: data, api: &sortedModel{}}).run()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("program %x: log line %d: engine %q, model %q", data, i, g[i], w[i])
		}
	}
	t.Fatalf("program %x: engine log has %d lines, model %d", data, len(g), len(w))
}

func TestEngineMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1992))
	for i := 0; i < 400; i++ {
		data := make([]byte, 8+rng.Intn(200))
		rng.Read(data)
		checkOrder(t, data)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		checkOrder(t, data)
	})
}
