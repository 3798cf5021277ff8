package sched

import (
	"ispn/internal/packet"
	"ispn/internal/queue"
)

// DelayEDD is the Delay-EDD (earliest-due-date) discipline of Ferrari and
// Verma (the paper's reference [7]), one of the related-work guaranteed
// schemes: the switch promises every flow a local delay budget d, an
// arriving packet of flow α is stamped with deadline
//
//	D = max(now, lastDeadline_α + s) + d
//
// and packets are served earliest deadline first. The max term regenerates
// each flow's deadline sequence at the peak spacing s, so a source exceeding
// that peak pushes its own deadlines into the future (isolation via deadline
// assignment rather than via service shares, the contrast Section 11 draws
// with WFQ). The budget and spacing are the port's, not per flow: the edd
// pipeline takes d from its profile's first class target and s as one
// maximum packet's transmission time, so flows need no registration.
type DelayEDD struct {
	q       *queue.DeadlineQueue
	spacing float64            // s, seconds between one flow's deadline credits
	budget  float64            // d, the local delay bound at this switch
	last    map[uint32]float64 // per flow: its latest deadline minus the budget
}

// NewDelayEDD returns an empty Delay-EDD scheduler with peak spacing and
// local delay budget in seconds.
func NewDelayEDD(spacing, budget float64) *DelayEDD {
	if spacing <= 0 || budget <= 0 {
		panic("sched: DelayEDD needs positive peak spacing and budget")
	}
	return &DelayEDD{q: queue.NewDeadlineQueue(), spacing: spacing, budget: budget, last: make(map[uint32]float64)}
}

// Enqueue implements Scheduler.
func (e *DelayEDD) Enqueue(p *packet.Packet, now float64) {
	start := now
	if last, seen := e.last[p.FlowID]; seen && last+e.spacing > start {
		start = last + e.spacing
	}
	e.last[p.FlowID] = start
	e.q.Push(p, start+e.budget)
}

// Dequeue implements Scheduler. It forgets the served packet's flow once that
// flow's next deadline credit is due (last + s <= now): any later packet of it
// would start at its own arrival anyway, so the table keeps only flows whose
// credits still run ahead of the clock.
func (e *DelayEDD) Dequeue(now float64) *packet.Packet {
	p := e.q.Pop()
	if p != nil && e.last[p.FlowID]+e.spacing <= now {
		delete(e.last, p.FlowID)
	}
	return p
}

// Len implements Scheduler.
func (e *DelayEDD) Len() int { return e.q.Len() }

var _ Scheduler = (*DelayEDD)(nil)
