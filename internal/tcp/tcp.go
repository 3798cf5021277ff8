// Package tcp implements a Reno-style TCP over the simulated network: slow
// start, congestion avoidance, fast retransmit/recovery, and Jacobson/Karels
// RTO estimation with Karn's rule. It exists because the paper's Table 3
// adds "two datagram TCP connections" as the best-effort traffic that fills
// whatever bandwidth the real-time classes leave over; only that qualitative
// role — greedy, ACK-clocked, loss-responsive — matters here.
//
// Segments are counted in whole packets (one segment = one simulated packet),
// which matches the paper's uniform 1000-bit packets. The header is the
// packet's own Seq: on a data packet it is the segment number, on an ACK the
// next segment the receiver expects (the cumulative ACK). The data and ACK
// routes end at different sinks, so nothing else tells the two apart. The
// connection's sizes and timer floor are the constants below; no workload
// needs them to vary.
package tcp

import (
	"fmt"
	"math"

	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/topology"
)

const (
	segmentBits = 1000  // data packet size, the paper's
	ackBits     = 320   // ACK packet size (40 bytes)
	maxCwnd     = 64    // congestion window cap in segments (receiver window)
	minRTO      = 0.200 // retransmit timer floor, seconds
)

// Config parameterizes one TCP connection.
type Config struct {
	// DataFlowID identifies data segments; AckFlowID identifies the
	// reverse ACK stream. They must be distinct and unused by other
	// flows.
	DataFlowID, AckFlowID uint32
	// Path is the forward route (node names); ReversePath carries ACKs.
	Path, ReversePath []string
}

// Stats summarizes a connection's behaviour.
type Stats struct {
	SegmentsSent    int64 // data transmissions, including retransmits
	Retransmits     int64
	Timeouts        int64
	FastRetransmits int64
	Delivered       int64 // in-order segments consumed by the receiver
	AcksReceived    int64
}

// txRec is the sender's per-segment record: first transmission time and
// Karn retransmission flag, tagged by seq+1.
type txRec struct {
	tag    uint64 // seq+1; 0 = empty
	time   float64
	rexmit bool
}

// Connection is a greedy (infinite-data) TCP sender plus its receiver.
type Connection struct {
	cfg Config
	eng *sim.Engine
	// Ingress nodes and routes of the data and ACK paths, resolved once;
	// every segment and ACK is stamped with its route.
	dataIngress, ackIngress *topology.Node
	dataRoute, ackRoute     topology.Route // stamped into every packet (never copied: each points into itself)

	// Sender state.
	sndUna  uint64  // lowest unacknowledged segment
	sndNext uint64  // next segment to send
	maxSent uint64  // highest segment ever transmitted + 1
	cwnd    float64 // congestion window, segments
	ssthr   float64
	dupAcks int
	inFR    bool
	recover uint64

	// RTT estimation (Jacobson/Karels).
	srtt, rttvar, rto float64

	// Retransmission timer. Arming reserves the deadline's slot, the
	// position an event scheduled then would take; one wake-up stays
	// claimed at or before the earliest armed deadline (see onWake).
	armed    bool      // deadline is set
	deadline sim.Slot  // the armed timeout's position
	due      float64   // and its time
	waking   bool      // the live wake-up is on the heap
	wake     sim.Slot  // its position
	wakeAt   float64   // and its time
	wakeFn   func(any) // prebound onWake, allocated once

	// Per-segment transmission state lives in a seq-indexed ring sized to
	// the window (entries are tagged with seq+1, so a slot is only
	// meaningful for the segment it was written for): no map traffic on
	// the per-segment fast path. The live seq range is bounded by the
	// congestion window, so a ring of >= 4*maxCwnd slots never collides.
	txWin   []txRec
	oooWin  []uint64 // tag seq+1 at slot seq&mask; 0 = not received
	winMask uint64

	// Receiver state.
	rcvNext uint64

	// Packet structs come from the network pool, so a running
	// connection allocates nothing.
	pool *packet.Pool

	stats   Stats
	started bool
	stopped bool
}

// NewConnection wires a connection into the network: routes for both
// directions are installed and sinks registered. Call Start to begin.
func NewConnection(net *topology.Network, cfg Config) *Connection {
	if len(cfg.Path) < 2 || len(cfg.ReversePath) < 2 {
		panic("tcp: need forward and reverse paths")
	}
	if cfg.DataFlowID == cfg.AckFlowID {
		panic("tcp: data and ack flow ids must differ")
	}
	// The connection's whole state machine — sender, receiver, timers —
	// runs on the network's engine and draws from its pool.
	ingress := net.Node(cfg.Path[0])
	if ingress == nil {
		panic(fmt.Sprintf("tcp: unknown node %q", cfg.Path[0]))
	}
	for _, name := range []string{cfg.Path[len(cfg.Path)-1], cfg.ReversePath[0], cfg.ReversePath[len(cfg.ReversePath)-1]} {
		if net.Node(name) == nil {
			panic(fmt.Sprintf("tcp: unknown node %q", name))
		}
	}
	c := &Connection{
		cfg:   cfg,
		eng:   ingress.Engine(),
		cwnd:  1,
		ssthr: maxCwnd,
		rto:   1.0,
		pool:  ingress.Pool(),
	}
	const winSize = 256 // >= 4*maxCwnd, a power of two
	c.txWin = make([]txRec, winSize)
	c.oooWin = make([]uint64, winSize)
	c.winMask = winSize - 1
	c.wakeFn = c.onWake
	c.dataIngress = ingress
	c.ackIngress = net.Node(cfg.ReversePath[0])
	net.InstallRouteAlong(&c.dataRoute, cfg.DataFlowID, c.dataIngress, net.PathPorts(cfg.Path))
	net.InstallRouteAlong(&c.ackRoute, cfg.AckFlowID, c.ackIngress, net.PathPorts(cfg.ReversePath))
	c.dataRoute.SetReceiver(net.Node(cfg.Path[len(cfg.Path)-1]), topology.Sink(c.onData))
	c.ackRoute.SetReceiver(net.Node(cfg.ReversePath[len(cfg.ReversePath)-1]), topology.Sink(c.onAck))
	return c
}

// Start begins transmitting.
func (c *Connection) Start() {
	if c.started || c.stopped {
		return
	}
	c.started = true
	c.trySend()
}

// Stop silences the connection permanently: the retransmission timer is
// disarmed and no further segments or ACKs are generated (packets already
// in flight drain and are released normally). Counters are kept. The
// leak-check quiesce uses it; there is no restart.
func (c *Connection) Stop() {
	c.stopped = true
	c.armed = false
}

// Stats returns a copy of the connection statistics.
func (c *Connection) Stats() Stats { return c.stats }

// Delivered returns in-order segments delivered to the receiving
// application.
func (c *Connection) Delivered() int64 { return c.stats.Delivered }

// ThroughputBits returns goodput in bits over elapsed.
func (c *Connection) ThroughputBits(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.stats.Delivered) * segmentBits / elapsed
}

// --- sender ---

func (c *Connection) trySend() {
	if c.stopped {
		return
	}
	for float64(c.sndNext-c.sndUna) < math.Min(c.cwnd, maxCwnd) {
		// After an RTO pulls sndNext back (go-back-N), resent
		// segments are retransmissions for Karn's rule.
		c.sendSegment(c.sndNext, c.sndNext < c.maxSent)
		c.sndNext++
		if c.sndNext > c.maxSent {
			c.maxSent = c.sndNext
		}
	}
}

func (c *Connection) sendSegment(seq uint64, isRexmit bool) {
	p := c.pool.Get()
	p.FlowID = c.cfg.DataFlowID
	p.Seq = seq
	p.Size = segmentBits
	p.Class = packet.Datagram
	p.CreatedAt = c.eng.Now()
	p.Route = &c.dataRoute
	c.stats.SegmentsSent++
	rec := &c.txWin[seq&c.winMask]
	if isRexmit {
		c.stats.Retransmits++
		if rec.tag != seq+1 {
			*rec = txRec{tag: seq + 1}
		}
		rec.rexmit = true
	} else if rec.tag != seq+1 {
		*rec = txRec{tag: seq + 1, time: c.eng.Now()}
	}
	c.dataIngress.Inject(p)
	if !c.armed {
		c.armTimer()
	}
}

// armTimer sets the timeout rto from now, replacing any armed one. A
// wake-up is claimed at the new deadline unless the live one comes no
// later.
func (c *Connection) armTimer() {
	c.due = c.eng.Now() + c.rto
	c.deadline = c.eng.Reserve(c.due, sim.KeyData)
	c.armed = true
	if !c.waking || c.due < c.wakeAt {
		c.claimWake()
	}
}

// claimWake puts the live wake-up at the armed deadline. A wake-up it
// replaces stays on the heap and does nothing when it fires.
func (c *Connection) claimWake() {
	c.eng.Claim(c.deadline, c.wakeFn, nil)
	c.waking, c.wake, c.wakeAt = true, c.deadline, c.due
}

// onWake runs at each claimed wake-up. Only the live one acts: a replaced
// one finds the live wake-up still ahead of it, or none on the heap.
func (c *Connection) onWake(any) {
	if !c.waking || !c.eng.Reached(c.wake) {
		return
	}
	c.waking = false
	if !c.armed {
		return // disarmed: everything was acked, or Stop
	}
	if !c.eng.Reached(c.deadline) {
		c.claimWake() // re-armed later: wake at the new deadline
		return
	}
	c.armed = false
	c.onTimeout()
}

func (c *Connection) onTimeout() {
	if c.sndUna == c.sndNext {
		return // nothing outstanding
	}
	c.stats.Timeouts++
	c.ssthr = math.Max(c.cwnd/2, 2)
	c.cwnd = 1
	c.dupAcks = 0
	c.inFR = false
	c.rto = math.Min(c.rto*2, 60)
	// Go back N: everything past the hole is presumed lost and will be
	// resent as the window reopens; the receiver ACKs away duplicates.
	c.sndNext = c.sndUna
	c.trySend()
	c.armTimer()
}

func (c *Connection) onAck(p *packet.Packet) {
	c.stats.AcksReceived++
	ack := p.Seq
	if c.stopped {
		return // late ACKs must not re-arm the timer or send
	}
	if ack > c.sndUna {
		// New data acknowledged. (Acked segments' window slots are
		// simply left behind: slots are seq-tagged, so stale entries
		// are never misread.)
		c.sampleRTT(ack)
		acked := ack - c.sndUna
		c.sndUna = ack
		if c.sndNext < ack {
			c.sndNext = ack
		}
		c.dupAcks = 0
		// New data acknowledged: clear any exponential backoff.
		if c.srtt > 0 {
			c.rto = math.Max(c.srtt+float64(4*c.rttvar), minRTO)
		}
		if c.inFR {
			if ack >= c.recover {
				// Full recovery: deflate.
				c.cwnd = c.ssthr
				c.inFR = false
			} else {
				// Partial ACK (NewReno-style): retransmit the
				// next hole, keep the window.
				c.sendSegment(c.sndUna, true)
				c.cwnd = math.Max(c.cwnd-float64(acked)+1, 1)
			}
		} else if c.cwnd < c.ssthr {
			c.cwnd += float64(acked) // slow start
		} else {
			c.cwnd += float64(acked) / c.cwnd // congestion avoidance
		}
		if c.sndUna == c.sndNext {
			c.armed = false
		} else {
			c.armTimer()
		}
		c.trySend()
		return
	}
	// Duplicate ACK.
	c.dupAcks++
	if c.inFR {
		c.cwnd++ // window inflation
		c.trySend()
		return
	}
	if c.dupAcks == 3 && c.sndUna < c.sndNext {
		c.stats.FastRetransmits++
		c.ssthr = math.Max(c.cwnd/2, 2)
		c.cwnd = c.ssthr + 3
		c.inFR = true
		c.recover = c.sndNext
		c.sendSegment(c.sndUna, true)
	}
}

func (c *Connection) sampleRTT(ack uint64) {
	// Karn's rule: only time segments never retransmitted; use the
	// oldest segment being cumulatively acknowledged.
	seq := c.sndUna
	rec := &c.txWin[seq&c.winMask]
	if rec.tag != seq+1 || rec.rexmit {
		return
	}
	m := c.eng.Now() - rec.time
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := m - c.srtt
		c.srtt += float64(d / 8)
		if d < 0 {
			d = -d
		}
		c.rttvar += float64((d - c.rttvar) / 4)
	}
	c.rto = math.Max(c.srtt+float64(4*c.rttvar), minRTO)
}

// --- receiver ---

func (c *Connection) onData(p *packet.Packet) {
	dataSeq := p.Seq
	if dataSeq == c.rcvNext {
		c.rcvNext++
		c.stats.Delivered++
		for c.oooWin[c.rcvNext&c.winMask] == c.rcvNext+1 {
			c.oooWin[c.rcvNext&c.winMask] = 0
			c.rcvNext++
			c.stats.Delivered++
		}
	} else if dataSeq > c.rcvNext {
		c.oooWin[dataSeq&c.winMask] = dataSeq + 1
	}
	if c.stopped {
		return // deliver silently; a stopped endpoint generates no ACKs
	}
	// Immediate cumulative ACK.
	ackPkt := c.pool.Get()
	ackPkt.FlowID = c.cfg.AckFlowID
	ackPkt.Seq = c.rcvNext
	ackPkt.Size = ackBits
	ackPkt.Class = packet.Datagram
	ackPkt.CreatedAt = c.eng.Now()
	ackPkt.Route = &c.ackRoute
	c.ackIngress.Inject(ackPkt)
}
