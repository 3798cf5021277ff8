package queue

import (
	"ispn/internal/packet"
)

// DeadlineQueue is a priority queue of packets keyed on a float64 deadline
// (smallest first). Ties are broken by insertion order, so packets with equal
// deadlines are served FIFO — the degenerate case the paper highlights
// ("deadline scheduling in a homogeneous class leads to FIFO").
//
// It is an index-based 4-ary min-heap over value items: Push and Pop on the
// FIFO+ fast path (one of each per packet-hop) allocate nothing beyond
// amortized slice growth, unlike the container/heap realization whose
// interface methods box every item.
type DeadlineQueue struct {
	h   []dlItem
	seq uint64
}

type dlItem struct {
	p   *packet.Packet
	key float64
	seq uint64
}

func dlLess(a, b dlItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// NewDeadlineQueue returns an empty deadline queue.
func NewDeadlineQueue() *DeadlineQueue { return &DeadlineQueue{} }

// Len returns the number of queued packets.
func (q *DeadlineQueue) Len() int { return len(q.h) }

// Push inserts p with the given deadline key.
func (q *DeadlineQueue) Push(p *packet.Packet, key float64) {
	it := dlItem{p: p, key: key, seq: q.seq}
	q.seq++
	q.h = append(q.h, it)
	// Sift up.
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !dlLess(it, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// Pop removes and returns the packet with the smallest deadline, or nil.
func (q *DeadlineQueue) Pop() *packet.Packet {
	n := len(q.h)
	if n == 0 {
		return nil
	}
	p := q.h[0].p
	last := q.h[n-1]
	q.h[n-1] = dlItem{}
	q.h = q.h[:n-1]
	n--
	if n > 0 {
		// Sift last down from the root.
		h := q.h
		i := 0
		for {
			first := i<<2 + 1
			if first >= n {
				break
			}
			best := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if dlLess(h[c], h[best]) {
					best = c
				}
			}
			if !dlLess(h[best], last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	return p
}

// PeekKey returns the smallest deadline key. It panics if the queue is empty.
func (q *DeadlineQueue) PeekKey() float64 {
	if len(q.h) == 0 {
		panic("queue: PeekKey of empty DeadlineQueue")
	}
	return q.h[0].key
}
