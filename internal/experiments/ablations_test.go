package experiments

import (
	"strings"
	"testing"
)

func TestAblationIsolationShape(t *testing.T) {
	rows := AblationIsolation(RunConfig{Duration: 120, Seed: 11})
	if len(rows) != 2 || rows[0].Scheduler != "WFQ" || rows[1].Scheduler != "FIFO" {
		t.Fatalf("rows %+v, want WFQ then FIFO", rows)
	}
	for _, r := range rows {
		// The workload itself: a 3x-burstier source queues longer on
		// average whatever the discipline.
		if r.Burster.N == 0 || r.Burster.Mean <= r.Others.Mean {
			t.Fatalf("%s burster mean %.2f (%d samples) not above the others' %.2f",
				r.Scheduler, r.Burster.Mean, r.Burster.N, r.Others.Mean)
		}
	}
	// Under WFQ the burster's tail is much worse than its peers': isolation
	// assigns the burst's jitter to the burster. At this seed and horizon it
	// is 59.61 against 35.07; claims_test.go says why this is no claim.
	if wfq := rows[0]; wfq.Burster.P999 < 1.5*wfq.Others.P999 {
		t.Fatalf("WFQ burster p99.9 %.2f vs others %.2f: isolation not visible", wfq.Burster.P999, wfq.Others.P999)
	}
}

func TestAblationHopsShape(t *testing.T) {
	rows := AblationHops(RunConfig{Duration: 120, Seed: 11}, 5)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// At one hop FIFO and FIFO+ coincide (no offsets yet).
	if d := first.P999["FIFO"] - first.P999["FIFO+"]; d > 3 || d < -3 {
		t.Fatalf("1-hop FIFO %.1f vs FIFO+ %.1f should be close",
			first.P999["FIFO"], first.P999["FIFO+"])
	}
	// Jitter growth over the sweep: FIFO+ grows the least.
	growth := func(d string) float64 { return last.P999[d] - first.P999[d] }
	if !(growth("FIFO+") < growth("FIFO")) {
		t.Fatalf("FIFO+ growth %.1f not below FIFO %.1f", growth("FIFO+"), growth("FIFO"))
	}
}

func TestAblationAdmissionShape(t *testing.T) {
	rows := AblationAdmission(RunConfig{Duration: 300, Seed: 11}, 40)
	byPolicy := map[string]AdmissionResult{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	m, w := byPolicy["measurement"], byPolicy["worst-case"]
	// The Section 9 claim: measurement-based admission carries more
	// flows and achieves higher real-time utilization than worst-case
	// admission, without blowing the delay targets.
	if m.Admitted <= w.Admitted {
		t.Fatalf("measurement admitted %d <= worst-case %d", m.Admitted, w.Admitted)
	}
	if m.RealTimeUtil <= w.RealTimeUtil {
		t.Fatalf("measurement util %.3f <= worst-case %.3f", m.RealTimeUtil, w.RealTimeUtil)
	}
	missRate := func(r AdmissionResult) float64 {
		if r.Delivered == 0 {
			return 0
		}
		return float64(r.DelayTargetMisses) / float64(r.Delivered)
	}
	if missRate(m) > 0.001 {
		t.Fatalf("measurement policy misses its targets at %.5f", missRate(m))
	}
}

func TestAblationPlaybackShape(t *testing.T) {
	r := AblationPlayback(RunConfig{Duration: 120, Seed: 11})
	// The adaptive client's play-back point sits far below the a priori
	// bound — near the post facto bound (paper Sections 2-3).
	if r.AdaptivePointMS >= 0.7*r.APrioriBoundMS {
		t.Fatalf("adaptive point %.1f ms not clearly below a priori bound %.1f ms",
			r.AdaptivePointMS, r.APrioriBoundMS)
	}
	if r.AdaptivePointMS < r.Delay.Mean {
		t.Fatalf("adaptive point %.1f below mean delay %.1f — implausible", r.AdaptivePointMS, r.Delay.Mean)
	}
	// The rigid client holds the bound and loses (almost) nothing; the
	// adaptive one trades a small loss rate for the smaller point.
	if r.RigidLossRate > 0.001 {
		t.Fatalf("rigid loss rate %.5f too high", r.RigidLossRate)
	}
	if r.AdaptLossRate > 0.02 {
		t.Fatalf("adaptive loss rate %.5f too high", r.AdaptLossRate)
	}
}

func TestAblationDiscardShape(t *testing.T) {
	rows := AblationDiscard(RunConfig{Duration: 120, Seed: 11}, []float64{0, 10})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	off, on := rows[0], rows[1]
	if off.Discarded != 0 {
		t.Fatalf("threshold-off run discarded %d packets", off.Discarded)
	}
	if on.Discarded == 0 {
		t.Fatal("tight threshold discarded nothing")
	}
}

func TestAblationFormatters(t *testing.T) {
	cfg := RunConfig{Duration: 15, Seed: 1}
	if s := FormatIsolation(AblationIsolation(cfg)); !strings.Contains(s, "burster") {
		t.Fatal(s)
	}
	if s := FormatHops(AblationHops(cfg, 2)); !strings.Contains(s, "hops") {
		t.Fatal(s)
	}
	if s := FormatAdmission(AblationAdmission(RunConfig{Duration: 60, Seed: 1}, 10)); !strings.Contains(s, "measurement") {
		t.Fatal(s)
	}
	if s := FormatPlayback(AblationPlayback(cfg)); !strings.Contains(s, "adaptive") {
		t.Fatal(s)
	}
	if s := FormatDiscard(AblationDiscard(cfg, []float64{0})); !strings.Contains(s, "threshold") {
		t.Fatal(s)
	}
}
