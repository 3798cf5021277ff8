// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a clock (float64 seconds) and a pending-event queue
// ordered by (time, ordering key, insertion sequence), so simulations are
// fully reproducible: two events scheduled for the same instant fire
// control-before-data-before-delivery, and within one key in the order they
// were scheduled. The key layer fixes where an intervention or a delivery
// sorts among the events of its instant, whatever order they were scheduled
// in. Events are cancellable.
//
// The fast path is allocation-free and pointer-free in steady state: the
// pending queue is an index-based 4-ary min-heap of plain-value entries
// (time bits, seq, node index) — sift operations move 24-byte values with no
// interface boxing, no pointer chasing per comparison, and no GC write
// barriers. Comparisons are branch-free: times are kept as their IEEE-754
// bits, which order like the times themselves on the engine's domain
// (non-negative, not NaN), so (time, seq) compares as one 128-bit
// subtraction whose borrow is the answer, and siftDown picks the least of
// four children with index arithmetic rather than jumps. Firing an event
// leaves a hole at the root that the callback's first schedule fills and
// sifts down once ("replace-top"), so the common fire-and-reschedule step
// costs one sift instead of two. Callback state lives in engine-owned nodes
// allocated in stable blocks and recycled through a free list, and the
// prebound ScheduleCall/AtCall form lets hot callers (an event per
// packet-hop) schedule without constructing a closure.
//
// A reserved slot (Reserve) is a position in that order with nothing on the
// heap: it costs no event unless it is claimed (Claim), and Reached answers
// whether the run has passed it. A port on a delayed link reserves the
// instant its wire goes free and claims it only if a packet queues behind
// the one on the wire, so a delayed hop is one event (the delivery) and a
// backlog adds the wire-free event. The firing loop keeps the furthest
// position it has run through for Reached; keeping it is the only cost a
// run without slots pays.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// node carries an event's callback state. Nodes live in fixed blocks (their
// addresses are stable), are recycled through the engine's free list after
// firing or cancellation, and carry a generation counter so stale Event
// handles are inert rather than aliased.
type node struct {
	fn      func()    // closure form (Schedule/At)
	call    func(any) // prebound form (ScheduleCall/AtCall)
	arg     any
	ni      uint32 // this node's stable index
	gen     uint32
	pending bool
}

// entry is one heap slot: the ordering key plus the index of its node. It
// deliberately contains no pointers, so heap maintenance never pays a GC
// write barrier and comparisons stay within the heap's own cache lines.
//
// tbits is math.Float64bits of the event time. insert admits only times
// >= +0 that are not NaN, and on that domain the bit patterns order as
// unsigned integers exactly as the times do (+Inf included), so (tbits, seq)
// is one 128-bit key.
//
// seq is a composite tie-break: the top 24 bits hold the event's ordering
// key and the low 40 bits an insertion counter, so same-time events fire
// control first, then data-path events, then propagation deliveries in
// port order — and within one key, in insertion order.
type entry struct {
	tbits uint64
	seq   uint64
	ni    uint32
}

// lessMask returns all ones if a orders before b and zero otherwise: the
// borrow out of the 128-bit subtraction (a.tbits:a.seq) - (b.tbits:b.seq),
// negated into a mask. No branch depends on the data.
func lessMask(a, b *entry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.tbits, b.tbits, borrow)
	return -borrow
}

// Ordering keys for same-time tie-breaks. Every event carries a key; at one
// instant, smaller keys fire first. The engine's default scheduling calls
// use KeyData; timeline verbs, churn chains and trace ticks use KeyControl
// (via AtControl); link-propagation deliveries use KeyDelivery + the
// receiving port's index (via AtCallKeyed), so deliveries landing at the
// same instant fire in port order whichever transmission began first.
const (
	KeyControl uint32 = 0 // timeline verbs, churn, trace sampling
	KeyData    uint32 = 1 // sources, transmissions, timers (the default)
	// KeyDelivery is the base for propagation-delay deliveries; the
	// actual key is KeyDelivery + Port.Index().
	KeyDelivery uint32 = 2
)

// seqBits is the width of the per-engine insertion counter inside the
// composite tie-break; keys occupy the bits above it.
const seqBits = 40

// maxKey bounds ordering keys (24 bits remain above the counter).
const maxKey = 1<<24 - 1

// nodeBlockSize is the node-slab allocation unit.
const nodeBlockSize = 128

// Event is a cancellable handle to a scheduled callback, returned by
// Schedule and At. It is a small value; the zero Event is a valid "no
// event" handle for which Cancelled reports true and Cancel is a no-op.
// Handles stay safe after their event fires: the underlying node may be
// recycled for a new event, but the generation check makes the stale handle
// inert rather than aliased.
type Event struct {
	n   *node
	gen uint32
}

// Cancelled reports whether the event has been cancelled or has already
// fired (including the zero Event).
func (e Event) Cancelled() bool {
	return e.n == nil || e.n.gen != e.gen || !e.n.pending
}

// Slot is a position in the engine's order — (time, key, insertion
// counter), the one an event scheduled at Reserve's call would get — with
// nothing on the heap. The zero Slot is always reached.
type Slot struct {
	tbits uint64
	seq   uint64
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use.
type Engine struct {
	now  float64
	seq  uint64
	heap []entry // 4-ary min-heap by (time, seq)
	// reached is the furthest position the engine has run through: the
	// largest fired, or the boundary a RunUntil reached
	// (seq all ones: every position at that time). It is a running max, not
	// the position last fired, because an event inserted at the current
	// instant under a smaller key fires after later-keyed ones did.
	reached Slot
	// hole reports that heap[0] is vacant: RunUntil popped the root and
	// left the slot for the callback's first insert (see fill).
	hole      bool
	free      []*node // recycled nodes
	blocks    []*[nodeBlockSize]node
	stopped   bool
	processed uint64
}

// New returns an engine with its clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// Schedule arranges for fn to run delay seconds from now. A negative delay is
// treated as zero. It panics on NaN delays, which always indicate a
// simulation bug.
func (e *Engine) Schedule(delay float64, fn func()) Event {
	if math.IsNaN(delay) {
		panic("sim: NaN delay")
	}
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t. Times before the current
// clock are clamped to now; a NaN time panics.
func (e *Engine) At(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	n := e.insert(t, e.position(KeyData))
	n.fn = fn
	return Event{n: n, gen: n.gen}
}

// AtControl arranges for fn to run at absolute time t with control
// ordering: at one instant, control events fire before every data-path
// event and delivery. Scheduling all external intervention (timeline verbs,
// churn, trace sampling) through AtControl puts it at the same place in its
// instant however it was scheduled, which is what lets an event injected
// into a running simulation fire where the same event written in the file
// would.
func (e *Engine) AtControl(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	n := e.insert(t, e.position(KeyControl))
	n.fn = fn
	return Event{n: n, gen: n.gen}
}

// ScheduleCall arranges for call(arg) to run delay seconds from now. It is
// the closure-free fast path for hot, prebound callbacks (e.g. a port's
// transmit-complete handler with the packet as payload): the callback is
// bound once at setup and no per-event closure is allocated. The event
// cannot be cancelled; use Schedule when a handle is needed.
func (e *Engine) ScheduleCall(delay float64, call func(any), arg any) {
	if math.IsNaN(delay) {
		panic("sim: NaN delay")
	}
	if delay < 0 {
		delay = 0
	}
	e.AtCall(e.now+delay, call, arg)
}

// AtCall is ScheduleCall with an absolute time, clamped to now; a NaN time
// panics.
func (e *Engine) AtCall(t float64, call func(any), arg any) {
	e.AtCallKeyed(t, KeyData, call, arg)
}

// AtCallKeyed is AtCall with an explicit ordering key (see KeyControl and
// friends). Keys above maxKey panic — they would corrupt the composite
// tie-break.
func (e *Engine) AtCallKeyed(t float64, key uint32, call func(any), arg any) {
	if call == nil {
		panic("sim: nil event function")
	}
	n := e.insert(t, e.position(key))
	n.call = call
	n.arg = arg
}

// nodeAt resolves a stable node index.
func (e *Engine) nodeAt(ni uint32) *node {
	return &e.blocks[ni/nodeBlockSize][ni%nodeBlockSize]
}

// position returns the composite tie-break for key — the key above the
// insertion counter — and advances the counter.
func (e *Engine) position(key uint32) uint64 {
	if key > maxKey {
		panic("sim: ordering key out of range")
	}
	if e.seq >= 1<<seqBits {
		panic("sim: insertion counter exhausted")
	}
	seq := uint64(key)<<seqBits | e.seq
	e.seq++
	return seq
}

// insert takes a node from the free list (growing the slab if needed),
// stamps it and pushes its heap entry keyed by (time, seq), seq a
// composite tie-break from position. A time not after the clock is clamped
// to it, which also maps -0 onto the (non-negative) clock and keeps every
// tbits in the domain where bit order is time order; NaN panics. If
// RunUntil left a hole at the root, the entry takes it and sifts down;
// otherwise it is appended and sifts up.
func (e *Engine) insert(t float64, seq uint64) *node {
	if !(t > e.now) {
		if math.IsNaN(t) {
			panic("sim: NaN event time")
		}
		t = e.now
	}
	if len(e.free) == 0 {
		blk := new([nodeBlockSize]node)
		base := uint32(len(e.blocks)) * nodeBlockSize
		e.blocks = append(e.blocks, blk)
		for i := range blk {
			blk[i].ni = base + uint32(i)
			e.free = append(e.free, &blk[i])
		}
	}
	k := len(e.free) - 1
	n := e.free[k]
	e.free[k] = nil
	e.free = e.free[:k]
	n.pending = true
	it := entry{tbits: math.Float64bits(t), seq: seq, ni: n.ni}
	if e.hole {
		e.hole = false
		e.heap[0] = it
		e.siftDown(0)
	} else {
		e.heap = append(e.heap, it)
		e.siftUp(len(e.heap) - 1)
	}
	return n
}

// Reserve takes the position an event at time t with ordering key would
// get if scheduled now, and puts nothing on the heap. t must lie after the
// clock: a position at the current instant could already lie behind the
// run, so Reached could not answer for it. It panics otherwise, and on NaN.
func (e *Engine) Reserve(t float64, key uint32) Slot {
	if !(t > e.now) {
		panic("sim: reserved slot not after the clock")
	}
	return Slot{tbits: math.Float64bits(t), seq: e.position(key)}
}

// Reached reports whether the engine has run through s's position: it
// fired an event at or after it, or a RunUntil boundary passed it. A Run that empties the heap reaches only the last event it
// fired.
func (e *Engine) Reached(s Slot) bool {
	r := &e.reached
	return s.tbits < r.tbits || s.tbits == r.tbits && s.seq <= r.seq
}

// Claim puts call(arg) on the heap at s's position, so it fires exactly where
// an event scheduled at the Reserve would have. A slot is claimed at most
// once, and not after it is reached (which panics). Like ScheduleCall, the
// event has no handle.
func (e *Engine) Claim(s Slot, call func(any), arg any) {
	if call == nil {
		panic("sim: nil event function")
	}
	if e.Reached(s) {
		panic("sim: claiming a reached slot")
	}
	n := e.insert(math.Float64frombits(s.tbits), s.seq)
	n.call = call
	n.arg = arg
}

// recycle returns a node to the free list, invalidating outstanding handles.
func (e *Engine) recycle(n *node) {
	n.gen++
	n.fn = nil
	n.call = nil
	n.arg = nil
	n.pending = false
	e.free = append(e.free, n)
}

// Cancel removes a pending event. Cancelling a zero, stale, fired, or
// already cancelled event is a no-op. It costs a linear scan of the pending
// queue (which stays small — sources and busy ports each keep one event in
// flight), a deliberate trade: fire-path sifts carry no per-node back
// pointers to maintain. Called from a callback that has not scheduled yet,
// it first closes the root hole the firing event left.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || !n.pending {
		return
	}
	e.fill()
	for i := range e.heap {
		if e.heap[i].ni == n.ni {
			e.removeAt(i)
			break
		}
	}
	e.recycle(n)
}

// Stop makes the currently executing Run return once the current event's
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.RunUntil(math.Inf(1)) }

// RunUntil executes events with time <= t, then advances the clock to t
// (unless the run was stopped early or the horizon is infinite).
func (e *Engine) RunUntil(t float64) {
	e.stopped = false
	for !e.stopped {
		e.fill()
		if len(e.heap) == 0 {
			break
		}
		top := e.heap[0]
		tt := math.Float64frombits(top.tbits)
		if tt > t {
			break
		}
		// Pop the root by vacating it: the callback's first insert fills
		// the hole, and fill closes one left unused.
		e.hole = true
		// An event at the current instant may lie behind the furthest
		// position run through: it was inserted under a smaller key
		// (reached.tbits <= the clock's bits, so != is <).
		if tt > e.now {
			e.now = tt
			e.reached = Slot{tbits: top.tbits, seq: top.seq}
		} else if top.tbits != e.reached.tbits || top.seq > e.reached.seq {
			e.reached = Slot{tbits: top.tbits, seq: top.seq}
		}
		e.processed++
		// Copy the callback out and recycle before invoking: the
		// callback may schedule (reusing this node) or Cancel its own
		// now-stale handle, both of which are safe.
		n := e.nodeAt(top.ni)
		fn, call, arg := n.fn, n.call, n.arg
		e.recycle(n)
		if fn != nil {
			fn()
		} else {
			call(arg)
		}
	}
	e.fill()
	if e.stopped || math.IsInf(t, 1) {
		return
	}
	// Every position through the boundary has been passed (Abs maps a -0
	// boundary onto the +0 clock).
	if t >= math.Float64frombits(e.reached.tbits) {
		e.reached = Slot{tbits: math.Float64bits(math.Abs(t)), seq: math.MaxUint64}
	}
	if t > e.now {
		e.now = t
	}
}

// String summarizes engine state, for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%.6fs pending=%d processed=%d}", e.now, e.Pending(), e.processed)
}

// --- 4-ary heap of value entries -------------------------------------------

// fill closes a hole left at the root by RunUntil's pop: the last entry
// moves into it and sifts down.
func (e *Engine) fill() {
	if !e.hole {
		return
	}
	e.hole = false
	h := e.heap
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	if last > 1 {
		e.siftDown(0)
	}
}

// removeAt deletes the entry at heap index i.
func (e *Engine) removeAt(i int) {
	h := e.heap
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
	}
	e.heap = h[:last]
	if i < last {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	it := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if lessMask(&it, &h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// siftDown restores the heap below index i and reports whether the entry
// moved. A full family of four children is reduced to its least member by
// two pairwise masks and a final one, selecting indices arithmetically; only
// the test of whether the entry goes lower branches. The partial family at
// the last level keeps a loop.
func (e *Engine) siftDown(i int) bool {
	h := e.heap
	count := len(h)
	it := h[i]
	i0 := i
	for {
		first := i<<2 + 1
		var best int
		if first+3 < count {
			c := h[first : first+4 : first+4]
			m := lessMask(&c[1], &c[0])
			a := first + int(m&1)
			m = lessMask(&c[3], &c[2])
			b := first + 2 + int(m&1)
			m = lessMask(&h[b], &h[a])
			best = a ^ (a^b)&int(m)
		} else if first < count {
			best = first
			for c := first + 1; c < count; c++ {
				if lessMask(&h[c], &h[best]) != 0 {
					best = c
				}
			}
		} else {
			break
		}
		if lessMask(&h[best], &it) == 0 {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = it
	return i != i0
}
