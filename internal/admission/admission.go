// Package admission implements the paper's Section 9 measurement-based
// admission control for one link.
//
// The controller keeps two kinds of measured state: ν̂, a conservative
// (peak-of-recent-windows) estimate of the real-time utilization of the
// link, and d̂ⱼ, a conservative estimate of the recent maximal queueing
// delay of each predicted class j at this switch. A new predicted flow
// declaring a token bucket (r, b) is admitted into class i iff
//
//	(1) r + ν̂ < q·µ                          (datagram quota preserved)
//	(2) b < (Dⱼ − d̂ⱼ)(µ − ν̂ − r)  for all j ≥ i (equal or lower priority)
//
// where q = 0.9 and Dⱼ are the per-switch class delay targets. A guaranteed
// request of clock rate r is checked against (1) only — guaranteed
// commitments are "higher in priority than all levels i" and make no
// bucket-depth commitment.
//
// Following Section 9, only the *new* source is counted worst-case: existing
// flows enter the computation through measurement. Because measurement lags
// admission, freshly admitted flows contribute their declared rate to ν̂
// until the measurement has had time to see them (the ledger below).
//
// The ledger costs what it touches. Every entry expires warmup after it is
// declared and owners are handed out rising, so entries are appended in
// expiry order and in owner order: expiry pops the head, a release finds
// the owner by binary search and marks its entry, and ν̂ reads a
// running sum whenever that sum is exactly the left fold the definition
// spells out (Utilization).
package admission

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"ispn/internal/packet"
	"ispn/internal/stats"
)

// Controller is the per-link admission controller.
type Controller struct {
	mu      float64   // link rate, bits/s
	quota   float64   // real-time cap as a fraction of mu (paper: 0.9)
	targets []float64 // per-class delay targets D_j (seconds at this switch)

	rt         stats.Meter // measured real-time bits
	classDelay func(class int, now float64) float64

	// ledger[head:] holds the declared rates still counted, oldest first:
	// sorted by expiry and, anonymous entries aside, by owner. Released
	// entries stay in place, marked, until they reach either end.
	ledger    []ledgerEntry
	head      int
	lastOwner uint64 // the last non-zero owner declared
	// sumHi:sumLo is the exact sum of the counted rates that are integers
	// in [0, 2⁵³); inexact counts the others (see exact).
	sumLo, sumHi uint64
	inexact      int
}

// The measurement constants: Section 9 leaves them to the implementation,
// and one controller per link shares them.
const (
	measureWindow = 1.0 // ν̂ averaging window, seconds
	measureKeep   = 10  // windows the ν̂ peak is taken over
	warmup        = 3.0 // seconds a declared rate stays in the ledger before measurement takes over
)

type ledgerEntry struct {
	rate float64
	// expires is -Inf once the entry is released: a release expires it
	// early, so every test of "still warming" reads expires > now.
	expires float64
	// owner distinguishes whose declared rate this is, so releasing one
	// flow's capacity can never cannibalize another flow's still-warming
	// entry of the same rate (homogeneous churn makes equal rates the
	// common case, not the corner case). 0 means anonymous.
	owner uint64
}

// Config parameterizes a Controller.
type Config struct {
	// LinkRate is µ in bits/second.
	LinkRate float64
	// Quota is the maximum real-time fraction (0 defaults to 0.9).
	Quota float64
	// ClassTargets are the per-switch targets D_j, highest priority
	// first.
	ClassTargets []float64
	// ClassDelay returns the measured conservative class delay d̂_j; nil
	// means "no measurement yet" (0 is assumed).
	ClassDelay func(class int, now float64) float64
}

// New builds a Controller.
func New(cfg Config) *Controller {
	if cfg.LinkRate <= 0 {
		panic("admission: link rate must be positive")
	}
	if cfg.Quota == 0 {
		cfg.Quota = 0.9
	}
	if cfg.Quota <= 0 || cfg.Quota > 1 {
		panic("admission: quota must be in (0,1]")
	}
	if len(cfg.ClassTargets) == 0 {
		panic("admission: need at least one class target")
	}
	c := &Controller{
		mu:         cfg.LinkRate,
		quota:      cfg.Quota,
		targets:    append([]float64(nil), cfg.ClassTargets...),
		classDelay: cfg.ClassDelay,
	}
	c.rt.Init(measureWindow, measureKeep)
	return c
}

// ObserveTransmit feeds the utilization measurement; wire it to the port's
// OnTransmit observer. Only real-time (guaranteed + predicted) traffic counts
// toward ν̂.
func (c *Controller) ObserveTransmit(p *packet.Packet, now float64) {
	if p.Class == packet.Datagram {
		return
	}
	c.rt.AddSum(now, float64(p.Size))
}

// Utilization returns ν̂ at time now: the conservative measured real-time
// rate plus the declared rates still in the warmup ledger, in bits/second.
//
// ν̂ is defined as the left fold peak + r₁ + r₂ + … over the warming entries
// in ledger order. When the peak and every warming rate are integers below
// 2⁵³ and so is their total, every partial sum of that fold is exact, so
// peak plus the running sum is the fold bit for bit; otherwise the fold
// runs as written.
func (c *Controller) Utilization(now float64) float64 {
	for c.head < len(c.ledger) && c.ledger[c.head].expires <= now {
		if e := c.ledger[c.head]; !released(e) {
			c.uncount(e.rate)
		}
		c.head++
	}
	nu := c.rt.PeakRate(now)
	if c.inexact == 0 && c.sumHi == 0 && c.sumLo < exactLimit && exact(nu) {
		if sum := nu + float64(c.sumLo); sum < exactLimit {
			return sum
		}
	}
	for _, e := range c.ledger[c.head:] {
		if e.expires > now {
			nu += e.rate
		}
	}
	return nu
}

// exactLimit is 2⁵³: every integer below it is a float64, so adding two of
// them whose sum is also below it rounds nothing.
const exactLimit = 1 << 53

// exact reports whether x is an integer in [0, 2⁵³) (and not -0), the
// addends the running sum may stand in for.
func exact(x float64) bool {
	return !math.Signbit(x) && x < exactLimit && x == float64(int64(x))
}

// released reports whether ReleaseOwner has marked e.
func released(e ledgerEntry) bool { return math.IsInf(e.expires, -1) }

// count adds a rate that starts being counted to the running sum.
func (c *Controller) count(rate float64) {
	if !exact(rate) {
		c.inexact++
		return
	}
	var carry uint64
	c.sumLo, carry = bits.Add64(c.sumLo, uint64(rate), 0)
	c.sumHi += carry
}

// uncount takes a rate that stops being counted out of the running sum.
func (c *Controller) uncount(rate float64) {
	if !exact(rate) {
		c.inexact--
		return
	}
	var borrow uint64
	c.sumLo, borrow = bits.Sub64(c.sumLo, uint64(rate), 0)
	c.sumHi -= borrow
}

// SetLinkRate updates µ after a mid-run link reconfiguration, so admission
// decisions track the link's real capacity rather than the rate captured at
// controller creation.
func (c *Controller) SetLinkRate(mu float64) {
	if mu <= 0 {
		panic("admission: link rate must be positive")
	}
	c.mu = mu
}

// SetQuota updates the real-time cap after a mid-run scheduling-profile
// swap. The utilization measurement is kept: the traffic did not change,
// the policy did.
func (c *Controller) SetQuota(quota float64) {
	if quota <= 0 || quota > 1 {
		panic("admission: quota must be in (0,1]")
	}
	c.quota = quota
}

// SetClassTargets replaces the per-class delay targets after a mid-run
// scheduling-profile swap.
func (c *Controller) SetClassTargets(targets []float64) {
	if len(targets) == 0 {
		panic("admission: need at least one class target")
	}
	c.targets = append(c.targets[:0], targets...)
}

// Declare inserts a ledger entry for an already-authorized declared rate
// without running the admission tests — the renegotiation-decrease path uses
// it to re-cover a flow at its new, smaller rate. Entries must arrive in
// expiry order, and a non-zero owner may not be lower than the last one
// declared; Declare panics otherwise.
func (c *Controller) Declare(now, rate float64, owner uint64) {
	expires := now + warmup
	if n := len(c.ledger); n > c.head && expires < c.ledger[n-1].expires {
		panic("admission: ledger entry declared out of time order")
	}
	if owner != 0 {
		if owner < c.lastOwner {
			panic("admission: ledger owner declared out of order")
		}
		c.lastOwner = owner
	}
	// An empty ledger starts over at the front, and a full one whose dead
	// head is at least half of it slides down instead of growing, which
	// bounds the copying by the entries popped.
	if n := len(c.ledger); c.head == n || n == cap(c.ledger) && 2*c.head >= n {
		c.ledger, c.head = c.ledger[:copy(c.ledger, c.ledger[c.head:])], 0
	}
	c.ledger = append(c.ledger, ledgerEntry{rate: rate, expires: expires, owner: owner})
	c.count(rate)
}

// ReleaseOwner drops every still-warming ledger entry of the given owner —
// a departure (or a failed multi-hop operation's rollback) stops counting
// its declared rate against ν̂ immediately. A flow that outlived its warmup
// has no entries left and releases as a no-op: its share of ν̂ is measured,
// and decays out of the peak windows on its own once the traffic stops.
// Anonymous entries (owner 0) are not releasable.
func (c *Controller) ReleaseOwner(now float64, owner uint64) {
	if owner == 0 {
		return
	}
	live := c.ledger[c.head:]
	// The first non-zero owner at or after i rises with i, so the owner's
	// first entry is the first i where it reaches owner.
	i := sort.Search(len(live), func(i int) bool {
		for ; i < len(live); i++ {
			if o := live[i].owner; o != 0 {
				return o >= owner
			}
		}
		return true
	})
	for ; i < len(live) && (live[i].owner == owner || live[i].owner == 0); i++ {
		if e := &live[i]; e.owner == owner && !released(*e) {
			c.uncount(e.rate)
			e.expires = math.Inf(-1)
		}
	}
	// Trim released entries off both ends, so a rolled-back operation
	// leaves the ledger as it found it.
	n := len(c.ledger)
	for n > c.head && released(c.ledger[n-1]) {
		n--
	}
	c.ledger = c.ledger[:n]
	for c.head < n && released(c.ledger[c.head]) {
		c.head++
	}
}

// ErrRejected is returned (wrapped) when a request fails the criteria. It
// carries the numbers of the failed test rather than a rendered message, so
// a refusal costs one small allocation and Error builds the text only when
// somebody reads it (churn worlds refuse thousands of calls unread).
type ErrRejected struct {
	Criterion int // 1 or 2
	Class     int // class j that failed criterion 2 (criterion 1: -1)

	R, Nu     float64 // the declared rate r and the measured ν̂
	Quota, Mu float64 // the real-time cap q and the link rate µ
	// Criterion 2 only: the declared bucket b, and class j's target Dⱼ
	// and measured delay d̂ⱼ.
	B, Target, Delay float64
}

// Error implements error.
func (e *ErrRejected) Error() string {
	var detail string
	if e.Criterion == 1 {
		detail = fmt.Sprintf("r=%.0f + ν̂=%.0f >= %.2f·µ=%.0f", e.R, e.Nu, e.Quota, e.Quota*e.Mu)
	} else {
		spare := e.Mu - e.Nu - e.R
		detail = fmt.Sprintf("b=%.0f >= (D=%.4f − d̂=%.4f)·(µ−ν̂−r=%.0f) = %.0f",
			e.B, e.Target, e.Delay, spare, (e.Target-e.Delay)*spare)
	}
	return fmt.Sprintf("admission rejected (criterion %d, class %d): %s", e.Criterion, e.Class, detail)
}

// criterion1 measures ν̂ and tests r against the datagram quota — the part
// of the decision guaranteed and predicted requests share.
func (c *Controller) criterion1(now, r float64) (nu float64, rej *ErrRejected) {
	nu = c.Utilization(now)
	if r+nu >= c.quota*c.mu {
		rej = &ErrRejected{Criterion: 1, Class: -1, R: r, Nu: nu, Quota: c.quota, Mu: c.mu}
	}
	return nu, rej
}

// AdmitGuaranteedOwned tests a guaranteed request of clock rate r at time
// now and on success records the declared rate in the ledger, tagged by
// owner so ReleaseOwner can later drop exactly this flow's claim (owner 0:
// anonymous, never released).
func (c *Controller) AdmitGuaranteedOwned(now, r float64, owner uint64) error {
	if _, rej := c.criterion1(now, r); rej != nil {
		return rej
	}
	c.Declare(now, r, owner)
	return nil
}

// AdmitPredictedOwned tests a predicted request (r, b) into class at time
// now and on success records the declared rate, tagged by owner.
func (c *Controller) AdmitPredictedOwned(now, r, b float64, class int, owner uint64) error {
	if class < 0 || class >= len(c.targets) {
		return fmt.Errorf("admission: class %d out of range", class)
	}
	nu, rej := c.criterion1(now, r)
	if rej != nil {
		return rej
	}
	for j := class; j < len(c.targets); j++ {
		dj := 0.0
		if c.classDelay != nil {
			dj = c.classDelay(j, now)
		}
		if b >= (c.targets[j]-dj)*(c.mu-nu-r) {
			return &ErrRejected{Criterion: 2, Class: j, R: r, Nu: nu, Quota: c.quota, Mu: c.mu,
				B: b, Target: c.targets[j], Delay: dj}
		}
	}
	c.Declare(now, r, owner)
	return nil
}
