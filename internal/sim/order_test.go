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
// schedules, reserved slots and their claims, reads and run windows,
// and the program runs once on an Engine and once on sortedModel, a slice
// searched linearly for the least (time, key, insertion index). The two logs
// — every firing with its clock and every slot's Reached, every
// Pending read, the clock and every slot's Reached after every
// window — must be equal. The engine's order is a strict total order, so any
// correct priority queue produces the model's log exactly.

// orderAPI is the surface a program drives: an Engine or the model.
type orderAPI interface {
	now() float64
	// schedule issues one event by entry point kind (0 Schedule with x a
	// delay, 1 At, 2 AtControl, 3 AtCallKeyed, x absolute).
	schedule(kind int, x float64, key uint32, fn func())
	pending() int
	runUntil(t float64)
	stop()
	// reserve takes a slot at absolute time t (after the clock) and
	// returns its handle; slot handles count from 0 in reserve order.
	reserve(t float64, key uint32) int
	reached(h int) bool
	claim(h int, fn func())
}

type engineAPI struct {
	e     *Engine
	slots []Slot
}

func (a *engineAPI) now() float64 { return a.e.Now() }

func (a *engineAPI) schedule(kind int, x float64, key uint32, fn func()) {
	switch kind {
	case 0:
		a.e.Schedule(x, fn)
	case 1:
		a.e.At(x, fn)
	case 2:
		a.e.AtControl(x, fn)
	default:
		a.e.AtCallKeyed(x, key, func(any) { fn() }, nil)
	}
}

func (a *engineAPI) pending() int           { return a.e.Pending() }
func (a *engineAPI) runUntil(t float64)     { a.e.RunUntil(t) }
func (a *engineAPI) stop()                  { a.e.Stop() }
func (a *engineAPI) reached(h int) bool     { return a.e.Reached(a.slots[h]) }
func (a *engineAPI) claim(h int, fn func()) { a.e.Claim(a.slots[h], func(any) { fn() }, nil) }

func (a *engineAPI) reserve(t float64, key uint32) int {
	a.slots = append(a.slots, a.e.Reserve(t, key))
	return len(a.slots) - 1
}

// sortedModel is the reference: the engine's documented semantics with the
// pending set kept as an unordered slice. A reserved slot is an entry of
// that slice that only records it fired; claiming it gives it a callback.
// Pending does not see unclaimed slots, and a run with no
// horizon stops when only they remain: it reaches the last event it fires.
type sortedModel struct {
	clock    float64
	ins      uint64
	stopped  bool
	pend     []modelEvent
	reachedB []bool // per slot handle
}

type modelEvent struct {
	t    float64
	key  uint32
	ins  uint64
	slot int    // slot handle, or -1 for a scheduled event
	fn   func() // nil for an unclaimed slot
}

func (m *sortedModel) now() float64 { return m.clock }

func (m *sortedModel) schedule(kind int, x float64, key uint32, fn func()) {
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
	m.pend = append(m.pend, modelEvent{t: t, key: key, ins: m.ins, slot: -1, fn: fn})
	m.ins++
}

func (m *sortedModel) reserve(t float64, key uint32) int {
	h := len(m.reachedB)
	m.reachedB = append(m.reachedB, false)
	m.pend = append(m.pend, modelEvent{t: t, key: key, ins: m.ins, slot: h})
	m.ins++
	return h
}

func (m *sortedModel) reached(h int) bool { return m.reachedB[h] }

func (m *sortedModel) claim(h int, fn func()) {
	for i := range m.pend {
		if m.pend[i].slot == h {
			m.pend[i].fn = fn
			return
		}
	}
	panic("model: claiming a reached slot")
}

func (m *sortedModel) pending() int {
	n := 0
	for _, ev := range m.pend {
		if ev.fn != nil {
			n++
		}
	}
	return n
}

// least returns the index of the first entry in (time, key, insertion)
// order, unclaimed slots included, or -1.
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

func (m *sortedModel) runUntil(t float64) {
	m.stopped = false
	for !m.stopped {
		i := m.least()
		if i < 0 || m.pend[i].t > t || math.IsInf(t, 1) && m.pending() == 0 {
			break
		}
		ev := m.pend[i]
		m.pend = append(m.pend[:i], m.pend[i+1:]...)
		if ev.slot >= 0 {
			m.reachedB[ev.slot] = true
		}
		if ev.fn == nil {
			continue
		}
		m.clock = math.Max(m.clock, ev.t)
		ev.fn()
	}
	if !m.stopped && !math.IsInf(t, 1) && t > m.clock {
		m.clock = t
	}
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
	claimed []bool // per slot handle
	serial  int    // events scheduled or claimed so far (the budget)
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
	p.api.schedule(kind, x, key, func() { p.fire(id) })
}

// slotOne decodes one slot operation: reserve a slot a little after the
// clock, or claim one the program has not claimed and the run has not
// reached.
func (p *orderProgram) slotOne() {
	b := p.next()
	if b&1 == 0 || len(p.claimed) == 0 {
		d := 0.25 * float64(1+b>>4&3)
		if b>>6 == 3 {
			d = 0.1
		}
		p.api.reserve(p.api.now()+d, orderKeys[int(b>>1&7)%len(orderKeys)])
		p.claimed = append(p.claimed, false)
		return
	}
	h := int(b>>1) % len(p.claimed)
	if p.claimed[h] || p.api.reached(h) || p.serial >= orderBudget {
		return
	}
	p.claimed[h] = true
	id := p.serial
	p.serial++
	p.api.claim(h, func() { p.fire(id) })
}

// slotsReached logs Reached for every slot, in handle order.
func (p *orderProgram) slotsReached() {
	var b strings.Builder
	for h := range p.claimed {
		if p.api.reached(h) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	p.logf("r%s", b.String())
}

// fire is every event's callback: log the firing and every slot's Reached,
// then act on one byte — read Pending, schedule 0, 1 or 2 events, and
// perhaps reserve or claim a slot, or Stop.
func (p *orderProgram) fire(id int) {
	p.logf("f%d@%s", id, ftoa(p.api.now()))
	p.slotsReached()
	c := p.next()
	children := int(c % 3)
	if p.serial+children > orderBudget {
		children = 0
	}
	observe := c>>2&1 != 0
	if observe {
		p.observe()
	}
	for range children {
		p.scheduleOne()
	}
	if observe {
		p.observe()
	}
	switch c >> 5 {
	case 6:
		p.slotOne()
	case 7:
		p.api.stop()
	}
}

func (p *orderProgram) observe() {
	p.logf("p%d", p.api.pending())
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
		switch b % 9 {
		case 0, 1, 2, 3:
			p.scheduleOne()
		case 7, 8:
			p.slotOne()
		case 4, 5:
			p.api.runUntil(p.api.now() + quarter(p.next()))
		case 6:
			p.api.runUntil(math.Inf(1))
		}
		p.logf("top %s", ftoa(p.api.now()))
		p.slotsReached()
		p.observe()
	}
	// Drain: Stop may have cut a run short, and the budget bounds the
	// cascade.
	for p.api.pending() > 0 {
		p.api.runUntil(math.Inf(1))
	}
	p.logf("end %s", ftoa(p.api.now()))
	p.slotsReached()
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
