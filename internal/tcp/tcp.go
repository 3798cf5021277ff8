// Package tcp implements a Reno-style TCP over the simulated network: slow
// start, congestion avoidance, fast retransmit/recovery, and Jacobson/Karels
// RTO estimation with Karn's rule. It exists because the paper's Table 3
// adds "two datagram TCP connections" as the best-effort traffic that fills
// whatever bandwidth the real-time classes leave over; only that qualitative
// role — greedy, ACK-clocked, loss-responsive — matters here.
//
// Segments are counted in whole packets (one segment = one simulated packet),
// which matches the paper's uniform 1000-bit packets.
package tcp

import (
	"fmt"
	"math"

	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/topology"
)

// Segment is the transport header carried in packet.Packet.Payload.
type Segment struct {
	Seq   uint64 // segment number (data) — counts segments, not bytes
	Ack   uint64 // next expected segment (cumulative)
	IsAck bool
}

// Config parameterizes one TCP connection.
type Config struct {
	// DataFlowID identifies data segments; AckFlowID identifies the
	// reverse ACK stream. They must be distinct and unused by other
	// flows.
	DataFlowID, AckFlowID uint32
	// Path is the forward route (node names); ReversePath carries ACKs.
	Path, ReversePath []string
	// SegmentBits is the data packet size (default 1000, the paper's).
	SegmentBits int
	// AckBits is the ACK packet size (default 320 bits = 40 bytes).
	AckBits int
	// MaxCwnd caps the congestion window in segments (receiver window);
	// default 64.
	MaxCwnd float64
	// MinRTO is the retransmit timer floor in seconds; default 200 ms.
	MinRTO float64
	// Priority is the datagram priority field (unused by the unified
	// scheduler, which classifies datagram traffic by class).
	Priority uint8
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
	net *topology.Network
	eng *sim.Engine
	// Ingress nodes and routes of the data and ACK paths, resolved once;
	// every segment and ACK is stamped with its route.
	dataIngress, ackIngress *topology.Node
	dataRoute, ackRoute     *topology.Route

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
	timer             sim.Event
	timeoutFn         func() // prebound onTimeout, allocated once

	// Per-segment transmission state lives in a seq-indexed ring sized to
	// the window (entries are tagged with seq+1, so a slot is only
	// meaningful for the segment it was written for): no map traffic on
	// the per-segment fast path. The live seq range is bounded by the
	// congestion window, so a ring of >= 4*MaxCwnd slots never collides.
	txWin   []txRec
	oooWin  []uint64 // tag seq+1 at slot seq&mask; 0 = not received
	winMask uint64

	// Receiver state.
	rcvNext uint64

	// Packet structs come from the network pool; Segment payloads are
	// recycled through this connection-local free list, so a running
	// connection allocates neither.
	pool    *packet.Pool
	segFree []*Segment

	stats   Stats
	started bool
	stopped bool
}

// NewConnection wires a connection into the network: routes for both
// directions are installed and sinks registered. Call Start to begin.
func NewConnection(net *topology.Network, cfg Config) *Connection {
	if cfg.SegmentBits == 0 {
		cfg.SegmentBits = 1000
	}
	if cfg.AckBits == 0 {
		cfg.AckBits = 320
	}
	if cfg.MaxCwnd == 0 {
		cfg.MaxCwnd = 64
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = 0.200
	}
	if len(cfg.Path) < 2 || len(cfg.ReversePath) < 2 {
		panic("tcp: need forward and reverse paths")
	}
	if cfg.DataFlowID == cfg.AckFlowID {
		panic("tcp: data and ack flow ids must differ")
	}
	// The connection's whole state machine — sender, receiver, timers —
	// runs on the data ingress node's engine and draws from its pool, so
	// TCP works unchanged on sharded networks as long as both endpoints
	// share a shard (validated below; intermediate hops may live anywhere).
	ingress := net.Node(cfg.Path[0])
	if ingress == nil {
		panic(fmt.Sprintf("tcp: unknown node %q", cfg.Path[0]))
	}
	for _, name := range []string{cfg.Path[len(cfg.Path)-1], cfg.ReversePath[0], cfg.ReversePath[len(cfg.ReversePath)-1]} {
		nd := net.Node(name)
		if nd == nil {
			panic(fmt.Sprintf("tcp: unknown node %q", name))
		}
		if nd.Engine() != ingress.Engine() {
			panic(fmt.Sprintf("tcp: endpoints %q and %q sit on different shards; a connection's endpoints must share a shard (use a Together partition constraint)",
				cfg.Path[0], name))
		}
	}
	c := &Connection{
		cfg:   cfg,
		net:   net,
		eng:   ingress.Engine(),
		cwnd:  1,
		ssthr: cfg.MaxCwnd,
		rto:   1.0,
		pool:  ingress.Pool(),
	}
	winSize := uint64(256)
	for winSize < 4*uint64(cfg.MaxCwnd) {
		winSize *= 2
	}
	c.txWin = make([]txRec, winSize)
	c.oooWin = make([]uint64, winSize)
	c.winMask = winSize - 1
	c.timeoutFn = c.onTimeout
	c.dataRoute = net.InstallRoute(cfg.DataFlowID, cfg.Path)
	c.ackRoute = net.InstallRoute(cfg.AckFlowID, cfg.ReversePath)
	c.dataIngress = net.Node(cfg.Path[0])
	c.ackIngress = net.Node(cfg.ReversePath[0])
	dst := net.Node(cfg.Path[len(cfg.Path)-1])
	dst.SetSink(cfg.DataFlowID, c.onData)
	src := net.Node(cfg.ReversePath[len(cfg.ReversePath)-1])
	src.SetSink(cfg.AckFlowID, c.onAck)
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
// cancelled and no further segments or ACKs are generated (packets already
// in flight drain and are released normally). Counters are kept. The
// leak-check quiesce uses it; there is no restart.
func (c *Connection) Stop() {
	c.stopped = true
	c.eng.Cancel(c.timer)
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
	return float64(c.stats.Delivered) * float64(c.cfg.SegmentBits) / elapsed
}

// --- sender ---

func (c *Connection) trySend() {
	if c.stopped {
		return
	}
	for float64(c.sndNext-c.sndUna) < math.Min(c.cwnd, c.cfg.MaxCwnd) {
		// After an RTO pulls sndNext back (go-back-N), resent
		// segments are retransmissions for Karn's rule.
		c.sendSegment(c.sndNext, c.sndNext < c.maxSent)
		c.sndNext++
		if c.sndNext > c.maxSent {
			c.maxSent = c.sndNext
		}
	}
}

// getSeg and putSeg recycle Segment payloads. A segment is returned to the
// free list by the sink that consumed it (onData/onAck), before the network
// releases the carrying packet.
func (c *Connection) getSeg() *Segment {
	if k := len(c.segFree) - 1; k >= 0 {
		s := c.segFree[k]
		c.segFree[k] = nil
		c.segFree = c.segFree[:k]
		*s = Segment{}
		return s
	}
	return &Segment{}
}

func (c *Connection) putSeg(s *Segment) {
	if s != nil {
		c.segFree = append(c.segFree, s)
	}
}

func (c *Connection) sendSegment(seq uint64, isRexmit bool) {
	seg := c.getSeg()
	seg.Seq = seq
	p := c.pool.Get()
	p.FlowID = c.cfg.DataFlowID
	p.Seq = seq
	p.Size = c.cfg.SegmentBits
	p.Class = packet.Datagram
	p.Priority = c.cfg.Priority
	p.CreatedAt = c.eng.Now()
	p.Payload = seg
	p.Route = c.dataRoute
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
	if c.timer.Cancelled() {
		c.armTimer()
	}
}

func (c *Connection) armTimer() {
	c.eng.Cancel(c.timer)
	c.timer = c.eng.Schedule(c.rto, c.timeoutFn)
}

func (c *Connection) onTimeout() {
	if c.stopped {
		return
	}
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
	seg, ok := p.Payload.(*Segment)
	if !ok || !seg.IsAck {
		return
	}
	c.stats.AcksReceived++
	ack := seg.Ack
	// The segment is consumed here; recycle it before the network
	// releases the carrying packet.
	p.Payload = nil
	c.putSeg(seg)
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
			c.rto = math.Max(c.srtt+4*c.rttvar, c.cfg.MinRTO)
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
			c.eng.Cancel(c.timer)
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
		c.srtt += d / 8
		if d < 0 {
			d = -d
		}
		c.rttvar += (d - c.rttvar) / 4
	}
	c.rto = math.Max(c.srtt+4*c.rttvar, c.cfg.MinRTO)
}

// --- receiver ---

func (c *Connection) onData(p *packet.Packet) {
	seg, ok := p.Payload.(*Segment)
	if !ok || seg.IsAck {
		return
	}
	dataSeq := seg.Seq
	p.Payload = nil
	c.putSeg(seg)
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
	ackSeg := c.getSeg()
	ackSeg.Ack = c.rcvNext
	ackSeg.IsAck = true
	ackPkt := c.pool.Get()
	ackPkt.FlowID = c.cfg.AckFlowID
	ackPkt.Seq = dataSeq
	ackPkt.Size = c.cfg.AckBits
	ackPkt.Class = packet.Datagram
	ackPkt.CreatedAt = c.eng.Now()
	ackPkt.Payload = ackSeg
	ackPkt.Route = c.ackRoute
	c.ackIngress.Inject(ackPkt)
}
