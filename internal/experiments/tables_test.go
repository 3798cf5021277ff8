package experiments

import (
	"strings"
	"testing"
)

// The table tests run shortened (but still substantial) versions of the
// paper's 600-second experiments and assert their shape — row layout,
// magnitudes, utilization — rather than exact sampled values. The orderings
// the paper's argument rests on are claims_test.go's, checked at every seed.

func TestTable1Shape(t *testing.T) {
	rows := Table1(RunConfig{Duration: 180, Seed: 7})
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	wfq, fifo := rows[0], rows[1]
	if wfq.Scheduler != "WFQ" || fifo.Scheduler != "FIFO" {
		t.Fatalf("row order %v/%v", wfq.Scheduler, fifo.Scheduler)
	}
	// Means nearly identical (paper: 3.16 vs 3.17).
	if d := wfq.AllFlows.Mean - fifo.AllFlows.Mean; d > 1 || d < -1 {
		t.Fatalf("means diverge: WFQ %.2f vs FIFO %.2f", wfq.AllFlows.Mean, fifo.AllFlows.Mean)
	}
	// Mean magnitude ~3 packet times.
	if wfq.AllFlows.Mean < 1 || wfq.AllFlows.Mean > 8 {
		t.Fatalf("WFQ mean %.2f outside plausible range", wfq.AllFlows.Mean)
	}
	// FIFO's 99.9th percentile is much smaller (paper: 34.7 vs 53.9).
	if fifo.AllFlows.P999 >= wfq.AllFlows.P999*0.85 {
		t.Fatalf("FIFO p999 %.2f not clearly below WFQ %.2f", fifo.AllFlows.P999, wfq.AllFlows.P999)
	}
	// Utilization ~83.5%.
	for _, r := range rows {
		if r.Utilization < 0.80 || r.Utilization > 0.87 {
			t.Fatalf("%s utilization %.3f, want ~0.835", r.Scheduler, r.Utilization)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(RunConfig{Duration: 180, Seed: 7})
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	byDisc := map[string]Table2Row{}
	for _, r := range rows {
		byDisc[r.Scheduler] = r
	}
	for _, d := range []string{"WFQ", "FIFO", "FIFO+"} {
		r, ok := byDisc[d]
		if !ok {
			t.Fatalf("missing %s row", d)
		}
		// Mean grows with path length for all disciplines.
		for k := 1; k < 4; k++ {
			if r.PerPath[k].Mean <= r.PerPath[k-1].Mean {
				t.Fatalf("%s mean not increasing with path length: %+v", d, r.PerPath)
			}
		}
	}
}

func TestTable3Shape(t *testing.T) {
	res := Table3(RunConfig{Duration: 180, Seed: 7})
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(res.Rows))
	}
	// Every guaranteed sample obeys the full packetized Parekh-Gallager
	// bound. The Guaranteed-Peak rows (b = one packet) are allowed one more
	// packet time: WFQ counts real rather than fluid backlog in its virtual
	// time and overshoots there (here 14.12 against 13.76 at 2 hops; at most
	// 0.816 ms over seeds 1-8 at 30 s and 180 s). ROADMAP item 2's fix
	// deletes the allowance.
	for _, r := range res.Rows {
		if r.PGBound == 0 {
			continue
		}
		limit := r.PGBoundFull
		if r.Kind == GuaranteedPeak {
			limit += PacketBits / LinkRate * UnitMS
		}
		if r.Stats.Max > limit+0.001 {
			t.Fatalf("%s path %d max %.2f exceeds full P-G bound %.2f (held to %.2f)",
				r.Kind, r.PathLen, r.Stats.Max, r.PGBoundFull, limit)
		}
	}
	// Orderings: Peak << Average, High << Low (aggregate 99.9%).
	k := res.ByKind
	if !(k[GuaranteedPeak].P999 < k[GuaranteedAvg].P999) {
		t.Fatalf("Guaranteed-Peak p999 %.1f not below Guaranteed-Avg %.1f",
			k[GuaranteedPeak].P999, k[GuaranteedAvg].P999)
	}
	if !(k[PredictedHigh].P999 < k[PredictedLow].P999) {
		t.Fatalf("Predicted-High p999 %.1f not below Predicted-Low %.1f",
			k[PredictedHigh].P999, k[PredictedLow].P999)
	}
	// Utilization: > 97% total, ~83.5% real-time on every link.
	for i := range res.LinkUtil {
		if res.LinkUtil[i] < 0.97 {
			t.Fatalf("link %d utilization %.3f, want > 0.97", i+1, res.LinkUtil[i])
		}
		if res.RealTimeUtil[i] < 0.80 || res.RealTimeUtil[i] > 0.87 {
			t.Fatalf("link %d real-time utilization %.3f, want ~0.835", i+1, res.RealTimeUtil[i])
		}
	}
	// Datagram drops stay small and real-time traffic loses nothing.
	if res.DatagramDropRate > 0.02 {
		t.Fatalf("datagram drop rate %.4f, want <= 2%%", res.DatagramDropRate)
	}
	if res.RealTimeDropped != 0 {
		t.Fatalf("%d real-time packets dropped", res.RealTimeDropped)
	}
	// TCP fills the leftover ~16%: each connection well above 100 kbit/s.
	for i, g := range res.TCPGoodputBits {
		if g < 1e5 {
			t.Fatalf("TCP %d goodput %.0f too low", i+1, g)
		}
	}
}

func TestTable3Determinism(t *testing.T) {
	a := Table3(RunConfig{Duration: 20, Seed: 3})
	b := Table3(RunConfig{Duration: 20, Seed: 3})
	for i := range a.Rows {
		if a.Rows[i].Stats != b.Rows[i].Stats {
			t.Fatalf("same seed, different results: %+v vs %+v", a.Rows[i], b.Rows[i])
		}
	}
	c := Table3(RunConfig{Duration: 20, Seed: 4})
	same := true
	for i := range a.Rows {
		if a.Rows[i].Stats != c.Rows[i].Stats {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical results")
	}
}

func TestFormatters(t *testing.T) {
	cfg := RunConfig{Duration: 15, Seed: 1}
	if s := FormatTable1(Table1(cfg)); !strings.Contains(s, "FIFO") || !strings.Contains(s, "WFQ") {
		t.Fatalf("FormatTable1: %s", s)
	}
	if s := FormatTable2(Table2(cfg)); !strings.Contains(s, "FIFO+") {
		t.Fatalf("FormatTable2: %s", s)
	}
	if s := FormatTable3(Table3(cfg)); !strings.Contains(s, "Guaranteed-Peak") || !strings.Contains(s, "P-G bound") {
		t.Fatalf("FormatTable3: %s", s)
	}
}

// TestTable3RecorderBytesPerSample gates what the flows' delay recorders
// hold after the Table-3 cell's full 600 s at seed 1992, a count that
// repeats exactly: at most 4.73 B per sample held outside the runs, the
// run and block tables, the blocks at their size classes and the tails
// included, 5 % over the 4.506 B measured. Its delays are distinct — the
// runs hold under 5 % of them — so this is the per-delay cost of the
// blocks: 4.506 B since each binade's codes drop the clock grid's shared
// low bits, against 6.20 B with one shift-free code a block and 8.14 B
// while each delay was a float in 1024-sample chunks.
func TestTable3RecorderBytesPerSample(t *testing.T) {
	const ceiling = 4.73
	s := compileCell("table3.ispn", table3Source(RunConfig{Duration: PaperDuration, Seed: 1992}))
	s.Run()
	var all, chunked, blocked, bytes int
	for _, f := range s.Flows {
		c, b := f.Flow.Meter().Footprint()
		all, chunked, bytes = all+f.Flow.Meter().Count(), chunked+c, bytes+b
		if c > 0 { // a tail holds 1 to 1024 keys once a block is coded, since a key's push codes a full one
			blocked += (c - 1) >> 10 << 10
		}
	}
	if chunked < all*95/100 {
		t.Fatalf("the runs hold %d of %d samples: the cell's delays are no longer distinct", all-chunked, all)
	}
	per := float64(bytes) / float64(chunked)
	t.Logf("%d samples: %d in runs, %d in blocks, %d in tails; %d B, %.3f B per chunked sample", all, all-chunked, blocked, chunked-blocked, bytes, per)
	if per > ceiling {
		t.Errorf("recorders hold %.3f B per chunked sample, want at most %.2f", per, ceiling)
	}
}
