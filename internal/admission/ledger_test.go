package admission

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/stats"
)

// sliceLedger is the controller as it stood when the warm-up ledger was a
// plain slice, re-summed on every query and filtered on every release. Its
// ledger methods are copied verbatim; TestLedgerMatchesParent holds the
// sorted ledger with its running sum to it, bit for bit.
type sliceLedger struct {
	mu      float64
	quota   float64
	targets []float64

	rt         stats.Meter
	classDelay func(class int, now float64) float64

	ledger []ledgerEntry
}

func (c *sliceLedger) ObserveTransmit(p *packet.Packet, now float64) {
	if p.Class == packet.Datagram {
		return
	}
	c.rt.AddSum(now, float64(p.Size))
}

func (c *sliceLedger) Utilization(now float64) float64 {
	nu := c.rt.PeakRate(now)
	kept := c.ledger[:0]
	for _, e := range c.ledger {
		if e.expires > now {
			kept = append(kept, e)
			nu += e.rate
		}
	}
	c.ledger = kept
	return nu
}

func (c *sliceLedger) Declare(now, rate float64, owner uint64) {
	c.ledger = append(c.ledger, ledgerEntry{rate: rate, expires: now + warmup, owner: owner})
}

func (c *sliceLedger) ReleaseOwner(now float64, owner uint64) {
	if owner == 0 {
		return
	}
	kept := c.ledger[:0]
	for _, e := range c.ledger {
		if e.owner != owner {
			kept = append(kept, e)
		}
	}
	c.ledger = kept
}

func (c *sliceLedger) criterion1(now, r float64) (nu float64, rej *ErrRejected) {
	nu = c.Utilization(now)
	if r+nu >= c.quota*c.mu {
		rej = &ErrRejected{Criterion: 1, Class: -1, R: r, Nu: nu, Quota: c.quota, Mu: c.mu}
	}
	return nu, rej
}

func (c *sliceLedger) AdmitGuaranteedOwned(now, r float64, owner uint64) error {
	if _, rej := c.criterion1(now, r); rej != nil {
		return rej
	}
	c.Declare(now, r, owner)
	return nil
}

func (c *sliceLedger) AdmitPredictedOwned(now, r, b float64, class int, owner uint64) error {
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

// sameDecision reports whether two admission outcomes agree: both admitted,
// or both refused with the same numbers, compared as bits.
func sameDecision(a, b error) bool {
	var ra, rb *ErrRejected
	if errors.As(a, &ra) != errors.As(b, &rb) {
		return false
	}
	if ra == nil {
		return (a == nil) == (b == nil)
	}
	for _, p := range [][2]float64{{ra.R, rb.R}, {ra.Nu, rb.Nu}, {ra.Quota, rb.Quota}, {ra.Mu, rb.Mu},
		{ra.B, rb.B}, {ra.Target, rb.Target}, {ra.Delay, rb.Delay}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return ra.Criterion == rb.Criterion && ra.Class == rb.Class
}

// TestLedgerMatchesParent drives the controller and sliceLedger through the
// same seeded operations at rising times — admissions, renegotiation
// declares, releases of live, expired, unknown and zero owners, and the
// rollback of the newest entry — and requires the same decision and the
// same ν̂ to the bit after every one. Rates are integer or fractional, the
// peak is fractional in each fresh meter's first window, and times sit on a
// binary grid, so entries expire at exactly expires == now.
//
// Mutation checks: letting exact accept fractional rates (dropping its
// x == float64(int64(x))), or taking the running sum with a fractional peak,
// fails this test.
func TestLedgerMatchesParent(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { ledgerMatchesParent(t, seed) })
	}
}

func ledgerMatchesParent(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	delay := func(class int, now float64) float64 { return 0.004 * float64(class+1) * (1 + math.Sin(now)) }
	cfg := Config{LinkRate: 1e6, ClassTargets: []float64{0.032, 0.32}, ClassDelay: delay}
	var (
		got  *Controller
		want *sliceLedger
	)
	// Each episode starts a fresh pair at t = 0, whose meter reports a
	// fractional peak until its first window closes; every other episode
	// declares integer rates only, so the running sum stands in for the
	// fold whenever the peak is an integer.
	integral := false
	rate := func() float64 {
		k := rng.Intn(4)
		if integral {
			k = 3 * (k % 2)
		}
		switch k {
		case 0:
			return float64(1+rng.Intn(400)) * 250 // integer
		case 1:
			return float64(1+rng.Intn(1000)) / 3 // fractional
		case 2:
			return 1e5 * rng.Float64()
		}
		return float64(1 + rng.Intn(1<<20))
	}
	var owners []uint64 // every owner declared so far
	next := uint64(0)
	newOwner := func() uint64 {
		if rng.Intn(8) == 0 {
			return 0 // anonymous
		}
		next += 1 + uint64(rng.Intn(3))
		owners = append(owners, next)
		return next
	}
	now := 0.0
	for step := 0; step < 4000; step++ {
		if step%400 == 0 {
			got = New(cfg)
			want = &sliceLedger{mu: 1e6, quota: 0.9, targets: cfg.ClassTargets, classDelay: delay}
			want.rt.Init(measureWindow, measureKeep)
			integral, now = step/400%2 == 1, 0
		}
		// Advance on a 1/64 s grid through the first window and a 1/8 s
		// grid after it, sometimes across an idle gap long enough to empty
		// the ledger and the meter's windows.
		switch k := rng.Intn(20); {
		case now < measureWindow:
			now += float64(rng.Intn(2)) / 64
		case k == 0:
			now += 8 + float64(rng.Intn(80))/8
		case k < 8:
			now += float64(rng.Intn(4)) / 8
		}
		var g, w error
		op := rng.Intn(10)
		switch {
		case op < 3: // traffic
			p := &packet.Packet{Size: 200 + rng.Intn(1800), Class: packet.Class(rng.Intn(3))}
			for i := 0; i < 1+rng.Intn(50); i++ {
				got.ObserveTransmit(p, now)
				want.ObserveTransmit(p, now)
			}
		case op < 5:
			r, o := rate(), newOwner()
			g, w = got.AdmitGuaranteedOwned(now, r, o), want.AdmitGuaranteedOwned(now, r, o)
		case op < 7:
			r, b, class, o := rate(), float64(rng.Intn(40000)), rng.Intn(3), newOwner()
			g, w = got.AdmitPredictedOwned(now, r, b, class, o), want.AdmitPredictedOwned(now, r, b, class, o)
			if g == nil && o != 0 && rng.Intn(3) == 0 {
				// A later hop refused: roll the newest entry back.
				n := len(got.ledger) - got.head
				got.ReleaseOwner(now, o)
				want.ReleaseOwner(now, o)
				if len(got.ledger)-got.head != n-1 {
					t.Fatalf("step %d: rollback left %d entries of %d", step, len(got.ledger)-got.head, n)
				}
			}
		case op < 8: // renegotiation down: release, then re-declare
			r, o := rate(), newOwner()
			if len(owners) > 0 {
				old := owners[rng.Intn(len(owners))]
				got.ReleaseOwner(now, old)
				want.ReleaseOwner(now, old)
			}
			got.Declare(now, r, o)
			want.Declare(now, r, o)
		default: // release a known, an unknown, or the zero owner
			var o uint64
			switch k := rng.Intn(5); {
			case k < 2 && len(owners) > 0:
				o = owners[rng.Intn(len(owners))]
			case k == 2 && len(owners) > 0:
				o = owners[rng.Intn(len(owners))] - 1 // in a gap, or a neighbour
			case k == 3:
				o = next + 1 + uint64(rng.Intn(5))
			}
			got.ReleaseOwner(now, o)
			want.ReleaseOwner(now, o)
		}
		if !sameDecision(g, w) {
			t.Fatalf("step %d at t=%v: decision %v, slice ledger %v", step, now, g, w)
		}
		if gu, wu := got.Utilization(now), want.Utilization(now); math.Float64bits(gu) != math.Float64bits(wu) {
			t.Fatalf("step %d at t=%v: ν̂ %v (%#x), slice ledger %v (%#x)",
				step, now, gu, math.Float64bits(gu), wu, math.Float64bits(wu))
		}
	}
}

// An owner below the last non-zero one, or an entry expiring before the
// newest, would break the order the ledger's searches rely on.
func TestDeclareOutOfOrderPanics(t *testing.T) {
	c := newCtl(nil)
	c.Declare(0, 1e3, 5)
	c.Declare(0, 1e3, 0) // anonymous: no order
	c.Declare(0, 1e3, 5) // equal: allowed
	for _, tc := range []struct {
		name    string
		declare func()
	}{
		{"lower owner", func() { c.Declare(1, 1e3, 4) }},
		{"earlier time", func() { c.Declare(-1, 1e3, 6) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Declare did not panic", tc.name)
				}
			}()
			tc.declare()
		}()
	}
}

// BenchmarkAdmitRelease times one predicted admission and a release with
// 26, 2 000 and 10⁶ entries warming in the ledger — the probe of a flow that
// joins while the rest are still measured by their declared rate. The
// newest case releases the flow it just admitted, as a refused operation's
// rollback does; the oldest case releases the longest-warming flow, as a
// departure of a flow admitted long ago does, so every flow warms for
// exactly that many cycles. A cycle must cost the same at every size,
// allocate nothing, and leave the ledger as long as it found it; the
// benchmark fails itself otherwise.
func BenchmarkAdmitRelease(b *testing.B) {
	for _, warming := range []int{26, 2000, 1_000_000} {
		for _, oldest := range []bool{false, true} {
			name := fmt.Sprintf("%d/newest", warming)
			if oldest {
				name = fmt.Sprintf("%d/oldest", warming)
			}
			b.Run(name, func(b *testing.B) {
				c := New(Config{LinkRate: 1e12, ClassTargets: []float64{0.032, 0.32}})
				for o := 1; o <= warming; o++ {
					if err := c.AdmitPredictedOwned(0, 32e3, 1e4, 0, uint64(o)); err != nil {
						b.Fatal(err) // a terabit link admits them all
					}
				}
				first, next := uint64(1), uint64(warming)
				cycle := func() {
					next++
					if err := c.AdmitPredictedOwned(1, 32e3, 1e4, 0, next); err != nil {
						b.Fatal(err)
					}
					if oldest {
						c.ReleaseOwner(1, first)
						first++
					} else {
						c.ReleaseOwner(1, next)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
				b.StopTimer()
				if n := len(c.ledger) - c.head; n != warming {
					b.Fatalf("ledger holds %d entries after %d cycles, want %d", n, b.N, warming)
				}
				if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
					b.Fatalf("admit+release allocates %v times per cycle, want 0", allocs)
				}
			})
		}
	}
}
