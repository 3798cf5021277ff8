package source

import (
	"math"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sim"
)

func markovCfg(seed int64) MarkovConfig {
	return MarkovConfig{
		FlowID:   1,
		Class:    packet.Predicted,
		SizeBits: 1000,
		PeakRate: 170,
		AvgRate:  85,
		Burst:    5,
		RNG:      sim.NewRNG(seed),
	}
}

func TestMarkovAverageRate(t *testing.T) {
	// Long-run rate must converge to A = 85 pkt/s.
	eng := sim.New()
	src := NewMarkov(markovCfg(1))
	n := 0
	src.Start(eng, func(p *packet.Packet) { n++ })
	const horizon = 2000.0
	eng.RunUntil(horizon)
	rate := float64(n) / horizon
	if math.Abs(rate-85) > 2 {
		t.Fatalf("average rate = %v pkt/s, want ~85", rate)
	}
}

func TestMarkovMeanIdle(t *testing.T) {
	// I = B(1/A - 1/P) = 5*(1/85 - 1/170) = 5/170.
	src := NewMarkov(markovCfg(1))
	want := 5.0 / 170.0
	if math.Abs(src.idle-want) > 1e-12 {
		t.Fatalf("mean idle = %v, want %v", src.idle, want)
	}
}

func TestMarkovBurstSpacingIsPeakRate(t *testing.T) {
	eng := sim.New()
	src := NewMarkov(markovCfg(2))
	var times []float64
	src.Start(eng, func(p *packet.Packet) { times = append(times, eng.Now()) })
	eng.RunUntil(50)
	if len(times) < 100 {
		t.Fatalf("only %d packets in 50s", len(times))
	}
	// Within bursts, the gap must be exactly 1/P; idle gaps are larger.
	peakGap := 1.0 / 170.0
	inBurst := 0
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < peakGap-1e-9 {
			t.Fatalf("gap %v below peak spacing %v", gap, peakGap)
		}
		if math.Abs(gap-peakGap) < 1e-9 {
			inBurst++
		}
	}
	if inBurst == 0 {
		t.Fatal("no back-to-back burst packets observed")
	}
}

func TestMarkovPacketFields(t *testing.T) {
	eng := sim.New()
	cfg := markovCfg(3)
	cfg.Class = packet.Guaranteed
	cfg.Priority = 2
	src := NewMarkov(cfg)
	var first *packet.Packet
	src.Start(eng, func(p *packet.Packet) {
		if first == nil {
			first = p
		}
	})
	eng.RunUntil(5)
	if first == nil {
		t.Fatal("no packets")
	}
	if first.FlowID != 1 || first.Class != packet.Guaranteed || first.Priority != 2 ||
		first.Size != 1000 || first.Seq != 0 {
		t.Fatalf("bad first packet: %+v", first)
	}
}

func TestMarkovSeqMonotone(t *testing.T) {
	eng := sim.New()
	src := NewMarkov(markovCfg(4))
	var last int64 = -1
	src.Start(eng, func(p *packet.Packet) {
		if int64(p.Seq) != last+1 {
			t.Fatalf("seq %d after %d", p.Seq, last)
		}
		last = int64(p.Seq)
	})
	eng.RunUntil(20)
}

func TestMarkovDeterministicWithSameSeed(t *testing.T) {
	run := func() []float64 {
		eng := sim.New()
		src := NewMarkov(markovCfg(7))
		var times []float64
		src.Start(eng, func(p *packet.Packet) { times = append(times, eng.Now()) })
		eng.RunUntil(30)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestMarkovConfigValidation(t *testing.T) {
	bad := []MarkovConfig{
		{AvgRate: 0, PeakRate: 1, Burst: 1, SizeBits: 1, RNG: sim.NewRNG(1)},
		{AvgRate: 2, PeakRate: 1, Burst: 1, SizeBits: 1, RNG: sim.NewRNG(1)},
		{AvgRate: 1, PeakRate: 2, Burst: 0.5, SizeBits: 1, RNG: sim.NewRNG(1)},
		{AvgRate: 1, PeakRate: 2, Burst: 1, SizeBits: 0, RNG: sim.NewRNG(1)},
		{AvgRate: 1, PeakRate: 2, Burst: 1, SizeBits: 1, RNG: nil},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewMarkov(cfg)
		}()
	}
}

func TestCBRExactSpacing(t *testing.T) {
	eng := sim.New()
	src := NewCBR(CBRConfig{FlowID: 2, SizeBits: 1000, Rate: 100})
	var times []float64
	src.Start(eng, func(p *packet.Packet) { times = append(times, eng.Now()) })
	eng.RunUntil(1.0)
	if len(times) < 99 || len(times) > 101 {
		t.Fatalf("%d packets in 1s, want ~100", len(times))
	}
	for i := 1; i < len(times); i++ {
		if math.Abs(times[i]-times[i-1]-0.01) > 1e-9 {
			t.Fatalf("gap %v, want 0.01", times[i]-times[i-1])
		}
	}
}

func TestCBRPhaseJitterWithinInterval(t *testing.T) {
	eng := sim.New()
	src := NewCBR(CBRConfig{FlowID: 2, SizeBits: 1000, Rate: 100, RNG: sim.NewRNG(5)})
	first := -1.0
	src.Start(eng, func(p *packet.Packet) {
		if first < 0 {
			first = eng.Now()
		}
	})
	eng.RunUntil(1)
	if first < 0 || first > 0.01 {
		t.Fatalf("first packet at %v, want within one interval", first)
	}
}

func TestPoissonRate(t *testing.T) {
	eng := sim.New()
	src := NewPoisson(PoissonConfig{FlowID: 3, SizeBits: 1000, Rate: 50, RNG: sim.NewRNG(6)})
	n := 0
	src.Start(eng, func(p *packet.Packet) { n++ })
	eng.RunUntil(1000)
	rate := float64(n) / 1000
	if math.Abs(rate-50) > 2 {
		t.Fatalf("rate = %v, want ~50", rate)
	}
}

func TestPolicedDropRateMatchesPaper(t *testing.T) {
	// The paper: (A, 50) bucket drops ~2% of the Markov sources' packets,
	// so the true average rate is ~0.98A.
	eng := sim.New()
	src := NewPoliced(NewMarkov(markovCfg(8)), 85, 50)
	n := 0
	src.Start(eng, func(p *packet.Packet) { n++ })
	eng.RunUntil(3000)
	st := src.Stats()
	if st.Total == 0 {
		t.Fatal("no packets generated")
	}
	if int64(n) != st.Total-st.Dropped {
		t.Fatalf("delivered %d, want %d", n, st.Total-st.Dropped)
	}
	dr := st.DropRate()
	if dr < 0.003 || dr > 0.06 {
		t.Fatalf("drop rate = %.4f, want ~0.02", dr)
	}
}

func TestPolicedPassesConformingTraffic(t *testing.T) {
	// A CBR source below the token rate should see zero drops.
	eng := sim.New()
	src := NewPoliced(NewCBR(CBRConfig{FlowID: 1, SizeBits: 1000, Rate: 50}), 85, 50)
	src.Start(eng, func(p *packet.Packet) {})
	eng.RunUntil(100)
	if src.Stats().Dropped != 0 {
		t.Fatalf("conforming CBR had %d drops", src.Stats().Dropped)
	}
}
