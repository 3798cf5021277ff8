package sched

import (
	"fmt"

	"ispn/internal/packet"
	"ispn/internal/queue"
)

// DRR is deficit round robin across flows. The paper's related work notes
// that Jacobson and Floyd "use round-robin instead of FIFO within a given
// priority level"; DRR is the standard packetized round robin and serves as
// the ablation baseline for that design choice. With uniform packet sizes
// and quantum = packet size it degenerates to plain packet round robin.
type DRR struct {
	quantum float64 // bits added to a flow's deficit per round
	byID    map[uint32]*drrFlow
	active  []*drrFlow // round-robin list of backlogged flows
	n       int
}

type drrFlow struct {
	id       uint32
	q        queue.Ring
	deficit  float64
	queued   bool // on the active list
	credited bool // quantum already granted during the current visit
}

// NewDRR returns a deficit-round-robin scheduler with the given quantum in
// bits. A flow is registered on its first packet's arrival: DRR serves an
// open-ended aggregate inside a priority class.
func NewDRR(quantum float64) *DRR {
	if quantum <= 0 {
		panic("sched: DRR quantum must be positive")
	}
	return &DRR{quantum: quantum, byID: make(map[uint32]*drrFlow)}
}

// AddFlow registers a flow.
func (d *DRR) AddFlow(id uint32) {
	if _, dup := d.byID[id]; dup {
		panic(fmt.Sprintf("sched: DRR flow %d already registered", id))
	}
	d.byID[id] = &drrFlow{id: id}
}

// Enqueue implements Scheduler.
func (d *DRR) Enqueue(p *packet.Packet, _ float64) {
	f, ok := d.byID[p.FlowID]
	if !ok {
		d.AddFlow(p.FlowID)
		f = d.byID[p.FlowID]
	}
	f.q.Push(p)
	if !f.queued {
		f.queued = true
		f.deficit = 0
		d.active = append(d.active, f)
	}
	d.n++
}

// Dequeue implements Scheduler.
func (d *DRR) Dequeue(now float64) *packet.Packet {
	if d.n == 0 {
		return nil
	}
	for {
		f := d.active[0]
		head := f.q.Peek()
		if !f.credited {
			// One quantum per round, granted on arrival at the
			// head of the rotation.
			f.deficit += d.quantum
			f.credited = true
		}
		if f.deficit >= float64(head.Size) {
			f.deficit -= float64(head.Size)
			p := f.q.Pop()
			d.n--
			if f.q.Len() == 0 {
				f.queued = false
				f.deficit = 0
				f.credited = false
				d.active = d.active[1:]
			}
			return p
		}
		// Deficit exhausted for this round: rotate to the next flow.
		f.credited = false
		d.active = append(d.active[1:], f)
	}
}

// Len implements Scheduler.
func (d *DRR) Len() int { return d.n }

var _ Scheduler = (*DRR)(nil)
