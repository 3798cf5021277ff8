// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a clock (float64 seconds) and a pending-event queue
// ordered by (time, ordering key, insertion sequence), so simulations are
// fully reproducible: two events scheduled for the same instant fire
// control-before-data-before-delivery, and within one key in the order they
// were scheduled. The key layer makes same-instant ordering identical
// whether a run executes on one engine or sharded across several (see
// Coordinator). Events are cancellable.
//
// The fast path is allocation-free and pointer-free in steady state: the
// pending queue is an index-based 4-ary min-heap of plain-value entries
// (time, seq, node index) — sift operations move 24-byte values with no
// interface boxing, no pointer chasing per comparison, and no GC write
// barriers. Callback state lives in engine-owned nodes allocated in stable
// blocks and recycled through a free list, and the prebound
// ScheduleCall/AtCall form lets hot callers (one event per packet
// transmission) schedule without constructing a closure.
package sim

import (
	"fmt"
	"math"
)

// node carries an event's callback state. Nodes live in fixed blocks (their
// addresses are stable), are recycled through the engine's free list after
// firing or cancellation, and carry a generation counter so stale Event
// handles are inert rather than aliased.
type node struct {
	fn      func()    // closure form (Schedule/At)
	call    func(any) // prebound form (ScheduleCall/AtCall)
	arg     any
	time    float64
	ni      uint32 // this node's stable index
	gen     uint32
	pending bool
}

// entry is one heap slot: the ordering key plus the index of its node. It
// deliberately contains no pointers, so heap maintenance never pays a GC
// write barrier and comparisons stay within the heap's own cache lines.
//
// seq is a composite tie-break: the top 24 bits hold the event's ordering
// key and the low 40 bits an insertion counter, so same-time events fire
// control first, then data-path events, then propagation deliveries in
// port order — and within one key, in insertion order. The key layer makes
// same-instant ordering independent of *which engine* inserted the event,
// which is what lets a sharded run replay the sequential order exactly.
type entry struct {
	time float64
	seq  uint64
	ni   uint32
}

func entryLess(a, b entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Ordering keys for same-time tie-breaks. Every event carries a key; at one
// instant, smaller keys fire first. The engine's default scheduling calls
// use KeyData; timeline verbs, churn chains and trace ticks use KeyControl
// (via AtControl); link-propagation deliveries use KeyDelivery + the
// receiving port's index (via AtCallKeyed), so deliveries landing at the
// same instant fire in global port order whichever shard sent them.
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

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use.
type Engine struct {
	now       float64
	seq       uint64
	heap      []entry // 4-ary min-heap by (time, seq)
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
func (e *Engine) Pending() int { return len(e.heap) }

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
// clock are clamped to now.
func (e *Engine) At(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	n := e.insert(t, KeyData)
	n.fn = fn
	return Event{n: n, gen: n.gen}
}

// AtControl arranges for fn to run at absolute time t with control
// ordering: at one instant, control events fire before every data-path
// event and delivery. A sharded run executes control events between shard
// windows with all clocks equal, so scheduling all external intervention
// (timeline verbs, churn, trace sampling) through AtControl is what keeps
// the two modes' same-instant interleavings identical.
func (e *Engine) AtControl(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	n := e.insert(t, KeyControl)
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

// AtCall is ScheduleCall with an absolute time, clamped to now.
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
	n := e.insert(t, key)
	n.call = call
	n.arg = arg
}

// nodeAt resolves a stable node index.
func (e *Engine) nodeAt(ni uint32) *node {
	return &e.blocks[ni/nodeBlockSize][ni%nodeBlockSize]
}

// insert takes a node from the free list (growing the slab if needed),
// stamps it and pushes its heap entry keyed by (time, key, insertion
// counter).
func (e *Engine) insert(t float64, key uint32) *node {
	if t < e.now {
		t = e.now
	}
	if key > maxKey {
		panic("sim: ordering key out of range")
	}
	if e.seq >= 1<<seqBits {
		panic("sim: insertion counter exhausted")
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
	n.time = t
	n.pending = true
	e.heap = append(e.heap, entry{time: t, seq: uint64(key)<<seqBits | e.seq, ni: n.ni})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	return n
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
// pointers to maintain.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || !n.pending {
		return
	}
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
func (e *Engine) RunUntil(t float64) { e.runThrough(t, t) }

// RunUntilBefore executes events with time strictly less than t, then
// advances the clock to t. It is the shard-window primitive: a shard
// granted the half-open window [now, t) runs exactly the events it owns in
// that window, leaving time-t events for after the barrier (where control
// events and cross-shard deliveries at t are sequenced first).
func (e *Engine) RunUntilBefore(t float64) {
	// Event times are floats, so "before t" is "through the float just
	// below t": one loop serves both forms.
	e.runThrough(math.Nextafter(t, math.Inf(-1)), t)
}

// runThrough executes events with time <= through, then advances the clock
// to t >= through (unless the run was stopped early or t is infinite).
func (e *Engine) runThrough(through, t float64) {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		top := e.heap[0]
		if top.time > through {
			break
		}
		// Pop the root in place.
		h := e.heap
		last := len(h) - 1
		h[0] = h[last]
		e.heap = h[:last]
		if last > 1 {
			e.siftDown(0)
		}
		if top.time > e.now {
			e.now = top.time
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
	if !e.stopped && !math.IsInf(t, 1) && t > e.now {
		e.now = t
	}
}

// NextEventTime returns the time of the earliest pending event, or +Inf
// with an empty queue. The shard coordinator uses it to bound each window.
func (e *Engine) NextEventTime() float64 {
	if len(e.heap) == 0 {
		return math.Inf(1)
	}
	return e.heap[0].time
}

// String summarizes engine state, for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%.6fs pending=%d processed=%d}", e.now, len(e.heap), e.processed)
}

// --- 4-ary heap of value entries -------------------------------------------

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
		if !entryLess(it, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// siftDown restores the heap below index i and reports whether the entry
// moved.
func (e *Engine) siftDown(i int) bool {
	h := e.heap
	count := len(h)
	it := h[i]
	i0 := i
	for {
		first := i<<2 + 1
		if first >= count {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < count; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if !entryLess(h[best], it) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = it
	return i != i0
}
