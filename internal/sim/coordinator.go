package sim

import "math"

// Coordinator advances several shard engines in lockstep windows under a
// conservative-lookahead discipline, bit-identically to running the same
// workload on one engine. It is single-threaded: within a window the shard
// engines run one after another, in index order. The windowed multi-heap
// run is kept as the reference path the differential tests and the fuzzer
// compare the one-heap run against, not as a source of speed.
//
// The contract it enforces:
//
//   - Each shard owns a disjoint partition of the simulation state; within
//     a window, a shard's events touch only its own state.
//   - Cross-shard interaction is delayed by at least the lookahead L (the
//     minimum cross-shard link propagation delay). A sender schedules the
//     arrival straight into the receiving shard's engine with the delivery
//     ordering key, so same-instant arrivals sort like the sequential
//     engine's.
//   - External intervention — timeline verbs, churn arrivals/departures,
//     trace sampling — lives on the control engine and is scheduled via
//     Engine.AtControl. Control events run at barriers with every shard
//     clock equal, which matches the sequential engine exactly because
//     KeyControl orders before every data and delivery key at one instant.
//
// Window safety: at a barrier at time T every clock equals T. Let m be the
// minimum next event time across shards. A cross-shard send is issued when
// a transmission starts, by an event at some time u >= m, and arrives after
// the packet's transmission time and the link's delay, at u + tx + d >=
// m + L, so every shard may run its events in [T, W) with
// W = min(nextControl, m + L, horizon) without ever receiving into its past
// — whichever order the shards run in.
// Windows are half-open (RunUntilBefore), leaving time-W events for after
// the barrier, where control events at W are sequenced first by key.
type Coordinator struct {
	ctrl   *Engine
	shards []*Engine
	// lookahead is the minimum cross-shard propagation delay, fixed with
	// the partition: +Inf when no link crosses shards (windows then stretch
	// to the next control event).
	lookahead float64
}

// NewCoordinator builds a coordinator over the given shard engines. ctrl is
// the control engine (its clock is the run's reference clock). It panics on
// a non-positive lookahead, which would make every window zero-width.
func NewCoordinator(ctrl *Engine, shards []*Engine, lookahead float64) *Coordinator {
	if lookahead <= 0 {
		panic("sim: coordinator lookahead must be positive")
	}
	return &Coordinator{ctrl: ctrl, shards: shards, lookahead: lookahead}
}

// Run advances the simulation to time "to" (inclusive, like
// Engine.RunUntil): all shard clocks and the control clock end at "to", so
// runs can be resumed segment by segment.
func (c *Coordinator) Run(to float64) {
	if to < c.ctrl.Now() {
		return
	}
	for {
		// Barrier: run control events at exactly the barrier time (every
		// shard clock equals the control clock here, and control precedes
		// data at one instant in the sequential order too).
		c.ctrl.RunUntil(c.ctrl.Now())
		m := math.Inf(1)
		for _, eng := range c.shards {
			if t := eng.NextEventTime(); t < m {
				m = t
			}
		}
		W := math.Min(c.ctrl.NextEventTime(), m+c.lookahead)
		if W >= to {
			// Final step: strict windows to the horizon, one more
			// barrier for control events at the horizon itself, then an
			// inclusive step so time-"to" events run exactly as
			// RunUntil(to) would. Sends issued at the horizon arrive
			// after it and wait in the receiver's heap for the next
			// segment.
			for _, eng := range c.shards {
				eng.RunUntilBefore(to)
			}
			c.ctrl.RunUntil(to)
			for _, eng := range c.shards {
				eng.RunUntil(to)
			}
			return
		}
		for _, eng := range c.shards {
			eng.RunUntilBefore(W)
		}
		// Advance the control clock to the new barrier without executing
		// time-W control events yet: they belong to the next barrier (no
		// control event lies strictly inside (T, W)).
		c.ctrl.RunUntilBefore(W)
	}
}
