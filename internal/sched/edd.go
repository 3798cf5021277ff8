package sched

import (
	"fmt"
	"math"

	"ispn/internal/packet"
	"ispn/internal/queue"
)

// DelayEDD is the Delay-EDD (earliest-due-date) discipline of Ferrari and
// Verma (the paper's reference [7]), one of the related-work guaranteed
// schemes: each flow α negotiates a per-switch local delay budget d_α, an
// arriving packet is stamped with deadline
//
//	D = max(now, lastDeadline + 1/peakRate) + d_α
//
// and packets are served earliest deadline first. The max term regenerates
// the deadline sequence at the flow's declared peak spacing, so a source
// exceeding its peak rate pushes its own deadlines into the future
// (isolation via deadline assignment rather than via service shares, the
// contrast Section 11 draws with WFQ).
type DelayEDD struct {
	q     *queue.DeadlineQueue
	flows map[uint32]*eddFlow
}

type eddFlow struct {
	minSpacing   float64 // 1/peak rate, seconds between deadline credits
	budget       float64 // local delay bound d at this switch
	lastDeadline float64 // start of the most recent deadline, minus budget
}

// NewDelayEDD returns an empty Delay-EDD scheduler.
func NewDelayEDD() *DelayEDD {
	return &DelayEDD{q: queue.NewDeadlineQueue(), flows: make(map[uint32]*eddFlow)}
}

// AddFlow registers a flow with its declared peak rate (packets/second) and
// local delay budget (seconds).
func (e *DelayEDD) AddFlow(id uint32, peakRate, budget float64) {
	if peakRate <= 0 || budget <= 0 {
		panic("sched: DelayEDD needs positive peak rate and budget")
	}
	if _, dup := e.flows[id]; dup {
		panic(fmt.Sprintf("sched: DelayEDD flow %d already registered", id))
	}
	e.flows[id] = &eddFlow{minSpacing: 1 / peakRate, budget: budget, lastDeadline: math.Inf(-1)}
}

// Enqueue implements Scheduler.
func (e *DelayEDD) Enqueue(p *packet.Packet, now float64) {
	f, ok := e.flows[p.FlowID]
	if !ok {
		panic(fmt.Sprintf("sched: DelayEDD packet for unknown flow %d", p.FlowID))
	}
	start := now
	if t := f.lastDeadline + f.minSpacing; t > start {
		start = t
	}
	f.lastDeadline = start
	p.Tag = start + f.budget
	e.q.Push(p, p.Tag)
}

// Dequeue implements Scheduler.
func (e *DelayEDD) Dequeue(_ float64) *packet.Packet { return e.q.Pop() }

// Len implements Scheduler.
func (e *DelayEDD) Len() int { return e.q.Len() }

var _ Scheduler = (*DelayEDD)(nil)
