package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

func TestFailoverRerouteRestoresDelivery(t *testing.T) {
	rows := Failover(RunConfig{Duration: 30, Seed: 1992})
	if len(rows) != 2 || rows[0].Reroute || !rows[1].Reroute {
		t.Fatalf("rows = %+v, want [baseline, reroute]", rows)
	}
	base, re := rows[0], rows[1]
	if base.Reroutes != 0 {
		t.Fatalf("baseline rerouted %d flows", base.Reroutes)
	}
	if re.Reroutes != 3 || re.Refusals != 0 {
		t.Fatalf("reroute cell moved %d flows with %d refusals, want 3/0", re.Reroutes, re.Refusals)
	}
	byName := func(row FailoverRow) map[string]FailoverFlow {
		m := map[string]FailoverFlow{}
		for _, f := range row.Flows {
			m[f.Name] = f
		}
		return m
	}
	b, r := byName(base), byName(re)
	// The rerouted guaranteed and predicted flows keep delivering through
	// the outage; the frozen-route baseline loses the middle third.
	for _, name := range []string{"circuit", "conf"} {
		if r[name].Delivered <= b[name].Delivered {
			t.Errorf("%s: reroute delivered %d <= baseline %d", name, r[name].Delivered, b[name].Delivered)
		}
		// Missing more than ~a quarter of the run means the flow did not
		// actually survive the failure window.
		if float64(r[name].Delivered) < 1.2*float64(b[name].Delivered) {
			t.Errorf("%s: reroute delivery %d not meaningfully above the blackholing baseline %d",
				name, r[name].Delivered, b[name].Delivered)
		}
	}
	// The failed link ate the baseline's outage traffic.
	if base.OutageDrops <= re.OutageDrops {
		t.Errorf("baseline outage drops %d <= reroute %d (rerouted flows should stop feeding the dead link)",
			base.OutageDrops, re.OutageDrops)
	}
	// Bounds stay advertised (guaranteed keeps a PG bound on the new path).
	if r["circuit"].BoundMS <= 0 {
		t.Errorf("rerouted circuit lost its bound: %v", r["circuit"].BoundMS)
	}
	out := FormatFailover(rows)
	if len(out) == 0 {
		t.Fatal("empty format")
	}
}

func TestFailoverParallelMatchesSequential(t *testing.T) {
	cfg := RunConfig{Duration: 15, Seed: 7}
	prev := runtime.GOMAXPROCS(1)
	seq := Failover(cfg)
	runtime.GOMAXPROCS(4)
	par := Failover(cfg)
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel failover differs from sequential:\n%+v\nvs\n%+v", par, seq)
	}
}
