// Package source implements traffic generators. The paper's evaluation uses
// two-state Markov sources: a geometrically distributed burst of packets
// emitted at peak rate P, then an exponentially distributed idle period with
// mean I, giving average rate A with 1/A = I/B + 1/P (Appendix). The package
// adds the other arrival processes scenarios need — constant-bit-rate (CBR)
// and Poisson — behind the same Source interface.
// Any source can be policed at the edge by a token-bucket filter (Policed),
// with nonconforming packets dropped — exactly the paper's (A, 50) source
// filter, and the scenario format's TokenBucket element.
package source

import (
	"ispn/internal/packet"
	"ispn/internal/sim"
	"ispn/internal/stats"
	"ispn/internal/tokenbucket"
)

// Target takes a started source's packets into the network; core's Flow is
// one. It reports whether the packet entered (the source does not care).
type Target interface {
	Inject(p *packet.Packet) bool
}

// Inject is a Target as a function: it delivers a generated packet into the
// network. ArrivedAt and CreatedAt are set by the caller of the source
// machinery.
type Inject func(p *packet.Packet)

// Inject implements Target; it reports true.
func (f Inject) Inject(p *packet.Packet) bool {
	f(p)
	return true
}

// Source generates packets once started. CBR, the generator a churn call
// runs, also has StartTo: Start for any Target, so a caller holding a Flow
// needs no closure around it.
type Source interface {
	// Start begins generation on the engine; packets are handed to
	// inject with CreatedAt set.
	Start(eng *sim.Engine, inject Inject)
}

// Stopper is implemented by sources that can be silenced mid-run. The
// timeline subsystem stops a flow's sources when the flow departs; a stopped
// source emits nothing further but keeps its counters, and its pending tick
// event simply expires.
type Stopper interface {
	// Stop ends generation permanently. Safe before Start and when
	// already stopped.
	Stop()
}

// StopSource stops src if it supports stopping (all generators in this
// package do; wrappers delegate to their inner source).
func StopSource(src Source) {
	if st, ok := src.(Stopper); ok {
		st.Stop()
	}
}

// PoolUser is implemented by sources that can allocate their packets from a
// free list instead of the heap.
type PoolUser interface {
	// SetPool directs future packet allocation to pl (nil reverts to
	// heap allocation).
	SetPool(pl *packet.Pool)
}

// AttachPool points src at the pool if it supports pooled allocation (all
// generators in this package do; wrappers delegate to their inner source).
// Call it before Start.
func AttachPool(src Source, pl *packet.Pool) {
	if u, ok := src.(PoolUser); ok {
		u.SetPool(pl)
	}
}

// common carries the fields every generator shares. A started generator
// paces itself with a prebound engine callback (sim.Engine.ScheduleCall) whose
// argument is the generator, so running one allocates nothing per packet and
// starting one no closure.
type common struct {
	flowID   uint32
	class    packet.Class
	priority uint8
	sizeBits int
	seq      uint64
	pool     *packet.Pool
	stopped  bool
	eng      *sim.Engine // set when started
	to       Target
}

// SetPool implements PoolUser.
func (c *common) SetPool(pl *packet.Pool) { c.pool = pl }

// Stop implements Stopper.
func (c *common) Stop() { c.stopped = true }

func (c *common) newPacket(now float64) *packet.Packet {
	var p *packet.Packet
	if c.pool != nil {
		p = c.pool.Get()
	} else {
		p = &packet.Packet{}
	}
	p.FlowID = c.flowID
	p.Seq = c.seq
	p.Size = c.sizeBits
	p.Class = c.class
	p.Priority = c.priority
	p.CreatedAt = now
	c.seq++
	return p
}

// emit hands the next packet, stamped now, to the target.
func (c *common) emit() {
	c.to.Inject(c.newPacket(c.eng.Now()))
}

// MarkovConfig parameterizes a two-state Markov on/off source.
type MarkovConfig struct {
	FlowID   uint32
	Class    packet.Class
	Priority uint8
	SizeBits int     // packet size in bits (paper: 1000)
	PeakRate float64 // P, packets/second during a burst
	AvgRate  float64 // A, long-run packets/second
	Burst    float64 // B, mean burst length in packets (paper: 5)
	RNG      *sim.RNG
}

// Markov is the paper's two-state source.
type Markov struct {
	common
	peak      float64
	burst     float64
	idle      float64 // mean idle duration I = B(1/A - 1/P)
	rng       *sim.RNG
	remaining int // packets left in the current burst
}

// NewMarkov builds a Markov source. It panics unless 0 < AvgRate < PeakRate
// and Burst >= 1.
func NewMarkov(cfg MarkovConfig) *Markov {
	if cfg.AvgRate <= 0 || cfg.PeakRate <= cfg.AvgRate {
		panic("source: need 0 < AvgRate < PeakRate")
	}
	if cfg.Burst < 1 {
		panic("source: mean burst must be >= 1 packet")
	}
	if cfg.SizeBits <= 0 {
		panic("source: packet size must be positive")
	}
	if cfg.RNG == nil {
		panic("source: RNG required")
	}
	// 1/A = I/B + 1/P  =>  I = B(1/A - 1/P).
	idle := cfg.Burst * (1/cfg.AvgRate - 1/cfg.PeakRate)
	return &Markov{
		common: common{flowID: cfg.FlowID, class: cfg.Class, priority: cfg.Priority, sizeBits: cfg.SizeBits},
		peak:   cfg.PeakRate,
		burst:  cfg.Burst,
		idle:   idle,
		rng:    cfg.RNG,
	}
}

// Start implements Source. The source begins in an idle period.
func (m *Markov) Start(eng *sim.Engine, inject Inject) {
	m.eng, m.to = eng, inject
	eng.ScheduleCall(m.rng.Exp(m.idle), markovTick, m)
}

func markovTick(arg any) {
	m := arg.(*Markov)
	if m.stopped {
		return
	}
	if m.remaining == 0 {
		// Start of a burst: draw its length.
		m.remaining = m.rng.Geometric(m.burst)
	}
	m.emit()
	m.remaining--
	if m.remaining > 0 {
		m.eng.ScheduleCall(1/m.peak, markovTick, m)
		return
	}
	m.eng.ScheduleCall(1/m.peak+m.rng.Exp(m.idle), markovTick, m)
}

// CBR emits fixed-size packets at a constant rate — the classic rigid
// real-time source (e.g. uncompressed voice).
type CBR struct {
	common
	interval float64
	rng      *sim.RNG
}

// CBRConfig parameterizes a constant-bit-rate source.
type CBRConfig struct {
	FlowID   uint32
	Class    packet.Class
	Priority uint8
	SizeBits int
	Rate     float64  // packets/second
	RNG      *sim.RNG // optional; used only to randomize the start phase
}

// NewCBR builds a CBR source.
func NewCBR(cfg CBRConfig) *CBR {
	c := new(CBR)
	c.Init(cfg)
	return c
}

// Init makes c, in place, the source NewCBR(cfg) builds — for a caller that
// holds its source inside a larger struct.
func (c *CBR) Init(cfg CBRConfig) {
	if cfg.Rate <= 0 || cfg.SizeBits <= 0 {
		panic("source: CBR needs positive rate and size")
	}
	*c = CBR{
		common:   common{flowID: cfg.FlowID, class: cfg.Class, priority: cfg.Priority, sizeBits: cfg.SizeBits},
		interval: 1 / cfg.Rate,
		rng:      cfg.RNG,
	}
}

// Start implements Source.
func (c *CBR) Start(eng *sim.Engine, inject Inject) { c.StartTo(eng, inject) }

// StartTo is Start for any Target.
func (c *CBR) StartTo(eng *sim.Engine, to Target) {
	c.eng, c.to = eng, to
	phase := 0.0
	if c.rng != nil {
		phase = c.rng.Float64() * c.interval
	}
	eng.ScheduleCall(phase, cbrTick, c)
}

func cbrTick(arg any) {
	c := arg.(*CBR)
	if c.stopped {
		return
	}
	c.emit()
	c.eng.ScheduleCall(c.interval, cbrTick, c)
}

// Poisson emits fixed-size packets with exponential inter-arrival times —
// the classic datagram background-traffic model.
type Poisson struct {
	common
	mean float64 // mean inter-arrival
	rng  *sim.RNG
}

// PoissonConfig parameterizes a Poisson source.
type PoissonConfig struct {
	FlowID   uint32
	Class    packet.Class
	Priority uint8
	SizeBits int
	Rate     float64 // packets/second
	RNG      *sim.RNG
}

// NewPoisson builds a Poisson source.
func NewPoisson(cfg PoissonConfig) *Poisson {
	if cfg.Rate <= 0 || cfg.SizeBits <= 0 || cfg.RNG == nil {
		panic("source: Poisson needs positive rate and size and an RNG")
	}
	return &Poisson{
		common: common{flowID: cfg.FlowID, class: cfg.Class, priority: cfg.Priority, sizeBits: cfg.SizeBits},
		mean:   1 / cfg.Rate,
		rng:    cfg.RNG,
	}
}

// Start implements Source.
func (p *Poisson) Start(eng *sim.Engine, inject Inject) {
	p.eng, p.to = eng, inject
	eng.ScheduleCall(p.rng.Exp(p.mean), poissonTick, p)
}

func poissonTick(arg any) {
	p := arg.(*Poisson)
	if p.stopped {
		return
	}
	p.emit()
	p.eng.ScheduleCall(p.rng.Exp(p.mean), poissonTick, p)
}

// Policed wraps a source with an edge token-bucket filter: nonconforming
// packets are dropped at the source, as in the paper's simulations (the
// (A, 50) filter drops about 2% of the Markov sources' packets).
type Policed struct {
	inner  Source
	bucket *tokenbucket.Bucket
	// Tokens are counted in packets, matching the paper's (A, 50)
	// convention, so each packet costs exactly 1 token.
	counter stats.Counter
}

// NewPoliced wraps inner with a (rate, depth) token-bucket filter counted in
// packets per second / packets.
func NewPoliced(inner Source, rate, depth float64) *Policed {
	return &Policed{inner: inner, bucket: tokenbucket.New(rate, depth)}
}

// SetPool implements PoolUser by delegating to the wrapped source.
func (f *Policed) SetPool(pl *packet.Pool) {
	if u, ok := f.inner.(PoolUser); ok {
		u.SetPool(pl)
	}
}

// Stop implements Stopper by delegating to the wrapped source.
func (f *Policed) Stop() { StopSource(f.inner) }

// Start implements Source.
func (f *Policed) Start(eng *sim.Engine, inject Inject) {
	f.inner.Start(eng, func(p *packet.Packet) {
		f.counter.Total++
		if !f.bucket.Take(eng.Now(), 1) {
			f.counter.Dropped++
			packet.Release(p)
			return
		}
		inject(p)
	})
}

// Stats returns total generated and dropped packet counts at the filter.
func (f *Policed) Stats() stats.Counter { return f.counter }
