package admission

import (
	"errors"
	"testing"

	"ispn/internal/packet"
)

func newCtl(classDelay func(int, float64) float64) *Controller {
	return New(Config{
		LinkRate:     1e6,
		ClassTargets: []float64{0.032, 0.32},
		ClassDelay:   classDelay,
	})
}

func TestAdmitIntoIdleLink(t *testing.T) {
	c := newCtl(nil)
	// Class 0 has target 32 ms: on an idle link the room is
	// 0.032·9e5 = 28800 bits, so a 20000-bit bucket fits.
	if err := c.AdmitPredictedOwned(0, 1e5, 2e4, 0, 0); err != nil {
		t.Fatalf("idle link rejected a modest flow: %v", err)
	}
	// The low class (target 320 ms) takes a much deeper bucket.
	if err := c.AdmitPredictedOwned(0, 1e5, 2e5, 1, 0); err != nil {
		t.Fatalf("idle link rejected a deep-bucket low-class flow: %v", err)
	}
	if err := c.AdmitGuaranteedOwned(10, 2e5, 0); err != nil {
		t.Fatalf("idle link rejected a guaranteed flow: %v", err)
	}
}

func TestCriterion1DatagramQuota(t *testing.T) {
	c := newCtl(nil)
	// 0.9 * 1e6 = 900k. A 950k request must fail even on an idle link.
	err := c.AdmitGuaranteedOwned(0, 9.5e5, 0)
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Criterion != 1 {
		t.Fatalf("err = %v, want criterion-1 rejection", err)
	}
}

func TestCriterion1CountsMeasuredUtilization(t *testing.T) {
	c := newCtl(nil)
	// Feed 600 kbit/s of real-time traffic for 15 seconds.
	for i := 0; i < 15000; i++ {
		now := float64(i) * 0.001
		c.ObserveTransmit(&packet.Packet{Size: 600, Class: packet.Predicted}, now)
	}
	// ν̂ ~ 600k, so a 400k request breaks r + ν̂ < 900k.
	err := c.AdmitGuaranteedOwned(15, 4e5, 0)
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Criterion != 1 {
		t.Fatalf("err = %v, want criterion-1 rejection", err)
	}
	// A 200k request still fits.
	if err := c.AdmitGuaranteedOwned(15, 2e5, 0); err != nil {
		t.Fatalf("200k request rejected: %v", err)
	}
}

func TestDatagramTrafficDoesNotCountTowardNuHat(t *testing.T) {
	c := newCtl(nil)
	for i := 0; i < 15000; i++ {
		now := float64(i) * 0.001
		c.ObserveTransmit(&packet.Packet{Size: 900, Class: packet.Datagram}, now)
	}
	if err := c.AdmitGuaranteedOwned(15, 8e5, 0); err != nil {
		t.Fatalf("datagram load should not block real-time admission: %v", err)
	}
}

func TestCriterion2BucketTooDeep(t *testing.T) {
	// With measured class delay d̂ near the target D, even a small bucket
	// must be rejected for that class.
	c := newCtl(func(class int, now float64) float64 {
		if class == 0 {
			return 0.030 // nearly at the 0.032 target
		}
		return 0
	})
	// Room for class 0: (0.032-0.030)*(1e6-0-1e5) = 0.002*9e5 = 1800 bits.
	err := c.AdmitPredictedOwned(0, 1e5, 5e4, 0, 0)
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Criterion != 2 || rej.Class != 0 {
		t.Fatalf("err = %v, want criterion-2 rejection for class 0", err)
	}
	// A tiny bucket fits.
	if err := c.AdmitPredictedOwned(0, 1e5, 1000, 0, 0); err != nil {
		t.Fatalf("tiny bucket rejected: %v", err)
	}
}

func TestCriterion2ChecksLowerClassesToo(t *testing.T) {
	// A high-priority admission must not break the lower class's target:
	// d̂ of class 1 near its target blocks admission into class 0.
	c := newCtl(func(class int, now float64) float64 {
		if class == 1 {
			return 0.319
		}
		return 0
	})
	// b=20000 passes class 0's own room ((0.032)(9e5) = 28800) but not
	// class 1's ((0.32-0.319)(9e5) = 900).
	err := c.AdmitPredictedOwned(0, 1e5, 2e4, 0, 0)
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Criterion != 2 || rej.Class != 1 {
		t.Fatalf("err = %v, want criterion-2 rejection for class 1", err)
	}
}

func TestLowClassAdmissionIgnoresHigherClassDelays(t *testing.T) {
	// Class-0 congestion is irrelevant when admitting into class 1
	// (criterion 2 applies to equal or lower priority only).
	c := newCtl(func(class int, now float64) float64 {
		if class == 0 {
			return 0.031
		}
		return 0
	})
	if err := c.AdmitPredictedOwned(0, 1e5, 5e4, 1, 0); err != nil {
		t.Fatalf("class-1 admission blocked by class-0 delay: %v", err)
	}
}

func TestLedgerMakesBackToBackAdmissionsConservative(t *testing.T) {
	c := newCtl(nil)
	// Admit 8 flows of 200k each in quick succession on an idle link:
	// measurement sees nothing yet, but the ledger must stop the pile-up
	// after 4 (4*200k < 900k, 5th would hit 1000k >= 900k).
	admitted := 0
	for i := 0; i < 8; i++ {
		if err := c.AdmitGuaranteedOwned(0.1*float64(i), 2e5, 0); err == nil {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted %d back-to-back 200k flows, want 4", admitted)
	}
}

func TestLedgerExpires(t *testing.T) {
	c := newCtl(nil)
	if err := c.AdmitGuaranteedOwned(0, 8e5, 0); err != nil {
		t.Fatal(err)
	}
	// Immediately, the declared 800k blocks everything.
	if err := c.AdmitGuaranteedOwned(0.1, 2e5, 0); err == nil {
		t.Fatal("ledger did not block immediate second admission")
	}
	// After warmup (3s) with no measured traffic (the flow never actually
	// sent), capacity frees up again.
	if err := c.AdmitGuaranteedOwned(10, 2e5, 0); err != nil {
		t.Fatalf("expired ledger still blocking: %v", err)
	}
}

func TestUtilizationCombinesMeasurementAndLedger(t *testing.T) {
	c := newCtl(nil)
	for i := 0; i < 5000; i++ {
		c.ObserveTransmit(&packet.Packet{Size: 300, Class: packet.Guaranteed}, float64(i)*0.001)
	}
	if err := c.AdmitGuaranteedOwned(5, 1e5, 0); err != nil {
		t.Fatal(err)
	}
	nu := c.Utilization(5)
	if nu < 3.5e5 || nu > 4.5e5 {
		t.Fatalf("ν̂ = %v, want ~400k (300k measured + 100k declared)", nu)
	}
}

func TestInvalidClass(t *testing.T) {
	c := newCtl(nil)
	if err := c.AdmitPredictedOwned(0, 1e5, 1e3, 7, 0); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{LinkRate: 0, ClassTargets: []float64{0.1}},
		{LinkRate: 1e6, Quota: 1.5, ClassTargets: []float64{0.1}},
		{LinkRate: 1e6},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestReleaseFreesWarmingLedgerEntry(t *testing.T) {
	c := newCtl(nil)
	if err := c.AdmitGuaranteedOwned(0, 8e5, 7); err != nil {
		t.Fatal(err)
	}
	// The declared 800k blocks a 200k follow-up while it warms up...
	if err := c.AdmitGuaranteedOwned(0.1, 2e5, 0); err == nil {
		t.Fatal("ledger did not block the follow-up")
	}
	// ...but a departure before warmup expiry frees it immediately.
	c.ReleaseOwner(0.2, 7)
	if err := c.AdmitGuaranteedOwned(0.3, 2e5, 0); err != nil {
		t.Fatalf("released capacity still blocking: %v", err)
	}
	// Releasing an owner with no entries left (already expired, or never
	// admitted), or owner 0, is a harmless no-op.
	c.ReleaseOwner(0.4, 7)
	c.ReleaseOwner(0.4, 12345)
	c.ReleaseOwner(0.4, 0)
}

func TestReleaseOwnerDoesNotCannibalizeOtherFlows(t *testing.T) {
	c := newCtl(nil)
	// Two flows declare the same rate — the homogeneous-churn case.
	if err := c.AdmitGuaranteedOwned(0, 3e5, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitGuaranteedOwned(2.5, 3e5, 2); err != nil {
		t.Fatal(err)
	}
	// Flow 1 departs at t=4 — its own entry expired at t=3, so the
	// release must NOT remove flow 2's still-warming equal-rate entry
	// (expires t=5.5).
	c.ReleaseOwner(4, 1)
	if got := c.Utilization(4); got < 3e5 {
		t.Fatalf("flow 2's warming entry was cannibalized: ν̂ = %v", got)
	}
	c.ReleaseOwner(5, 2)
	if got := c.Utilization(5); got != 0 {
		t.Fatalf("owned release left residue: ν̂ = %v", got)
	}
	// Owner-0 (anonymous) releases must never remove owned entries.
	if err := c.AdmitGuaranteedOwned(5, 3e5, 3); err != nil {
		t.Fatal(err)
	}
	c.ReleaseOwner(5.1, 0)
	if got := c.Utilization(5.2); got < 3e5 {
		t.Fatalf("owner-0 release removed an owned entry: ν̂ = %v", got)
	}
}

// TestRejectionMessagePinned pins ErrRejected's text: the numbers are kept
// and the message is built in Error, and it must read exactly as it did when
// it was rendered at refusal time (these literals were printed by that code).
func TestRejectionMessagePinned(t *testing.T) {
	c := New(Config{LinkRate: 1.5e6, Quota: 0.85, ClassTargets: []float64{0.032, 0.32},
		ClassDelay: func(class int, now float64) float64 { return 0.0123456 * float64(class+1) }})
	for i := 0; i < 4000; i++ {
		c.ObserveTransmit(&packet.Packet{Size: 333, Class: packet.Predicted}, float64(i)*0.001)
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{c.AdmitGuaranteedOwned(4, 1.1e6, 0),
			"admission rejected (criterion 1, class -1): r=1100000 + ν̂=333000 >= 0.85·µ=1275000"},
		{c.AdmitPredictedOwned(4, 1.23456e5, 5e4, 0, 0),
			"admission rejected (criterion 2, class 0): b=50000 >= (D=0.0320 − d̂=0.0123)·(µ−ν̂−r=1043544) = 20510"},
		{c.AdmitPredictedOwned(4, 1.23456e5, 3.1e5, 1, 0),
			"admission rejected (criterion 2, class 1): b=310000 >= (D=0.3200 − d̂=0.0247)·(µ−ν̂−r=1043544) = 308168"},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("refusal reads\n  %v\nwant\n  %s", tc.err, tc.want)
		}
	}
}

// A refusal allocates its ErrRejected and nothing else: no message is
// rendered unless Error is called.
func TestRefusalAllocatesOneStruct(t *testing.T) {
	c := newCtl(func(int, float64) float64 { return 0.031 })
	c.Utilization(0) // the ledger slice is allocated by now, if ever
	if n := testing.AllocsPerRun(100, func() {
		if c.AdmitPredictedOwned(0, 1e5, 5e4, 0, 1) == nil {
			t.Fatal("deep bucket admitted")
		}
	}); n > 1 {
		t.Fatalf("a refused AdmitPredictedOwned allocates %v times, want at most 1", n)
	}
}
