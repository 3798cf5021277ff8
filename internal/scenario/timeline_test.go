package scenario

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// runSrc compiles and runs one in-memory scenario.
func runSrc(t *testing.T, src string) *Report {
	t.Helper()
	return mustCompile(t, src, Options{}).Run()
}

// The acceptance-criteria scenario: a scripted guaranteed episode occupies
// the link, a rival is rejected while it holds, and a late request that
// would have been rejected is admitted after the departure releases both the
// reservation quota and the admission warmup ledger (the late request lands
// inside the 3 s warmup window of the departed flow's declared rate).
const capacityReleaseScenario = `
net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], admission on)
run :: Run(seed 1, horizon 10s)
A, B :: Switch
A -> B

at 1s   { big :: Guaranteed(rate 500kbps, path A -> B) }
at 2s   { rival :: Guaranteed(rate 500kbps, path A -> B) }
at 2.5s { remove big }
at 3s   { late :: Guaranteed(rate 500kbps, path A -> B) }
`

// A guaranteed path that crosses a link twice used to pass the per-hop quota
// check and panic in the scheduler's flow table, killing `ispnsim run` (and,
// injected over POST /events, a serve process). It is a diagnostic at compile
// time and a rejected arrival at event time; the minimised source is also a
// FuzzCompileScenario seed.
func TestLoopedGuaranteedPath(t *testing.T) {
	const world = "run :: Run(horizon 2s)\nA, B :: Switch\nA <-> B\n"
	const decl = "c :: Guaranteed(rate 100kbps, bucket 50kbit, path A -> B -> A -> B)"

	_, err := compileSrc(t, world+decl+"\n", Options{})
	if err == nil || !strings.HasPrefix(err.Error(), "test.ispn:4:6: ") || !strings.Contains(err.Error(), "crosses link A->B twice") {
		t.Fatalf("static declaration: want a positioned diagnostic naming the link, got %v", err)
	}

	sim := mustCompile(t, world+"at 1s { "+decl+" }\n", Options{})
	rep := sim.Run()
	if len(rep.Flows) != 1 || !rep.Flows[0].Rejected || !strings.Contains(rep.Flows[0].Reason, "crosses link A->B twice") {
		t.Fatalf("at-block declaration: want one rejected flow with the reason, got %+v", rep.Flows)
	}
	if sim.Now() != 2 || rep.Admission == nil || *rep.Admission != (AdmissionTotals{Requested: 1, Rejected: 1}) {
		t.Fatalf("run stopped at %vs with admission %+v, want the 2s horizon and 1 requested / 1 rejected", sim.Now(), rep.Admission)
	}
}

func TestTimelineCapacityRelease(t *testing.T) {
	rep := runSrc(t, capacityReleaseScenario)
	if rep.Admission == nil {
		t.Fatal("timeline scenario has no admission totals")
	}
	a := rep.Admission
	if a.Requested != 3 || a.Admitted != 2 || a.Rejected != 1 || a.Departed != 1 {
		t.Fatalf("admission totals = %+v, want 3/2/1/1", *a)
	}
	byName := map[string]FlowReport{}
	for _, f := range rep.Flows {
		byName[f.Name] = f
	}
	if !byName["rival"].Rejected {
		t.Error("rival was not rejected while big held the link")
	}
	if !strings.Contains(byName["rival"].Reason, "reserve") {
		t.Errorf("rival rejection reason = %q, want a quota diagnostic", byName["rival"].Reason)
	}
	if byName["late"].Rejected {
		t.Errorf("late was rejected after the departure: %s", byName["late"].Reason)
	}
	if !byName["big"].Departed {
		t.Error("big is not marked departed")
	}
	out := rep.Format()
	if !strings.Contains(out, "rejected") || !strings.Contains(out, "admission: 3 requested") {
		t.Errorf("Format lacks timeline sections:\n%s", out)
	}
}

// Timeline edge cases, table-driven over scenario sources.
func TestTimelineEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want func(t *testing.T, rep *Report)
	}{
		{
			// Removing a flow admission never admitted releases nothing
			// and counts no departure.
			name: "departure of a never-admitted flow",
			src: `
net :: Net(rate 1Mbps, admission on)
run :: Run(seed 1, horizon 8s)
A, B :: Switch
A -> B
at 1s { big :: Guaranteed(rate 500kbps, path A -> B) }
at 2s { rival :: Guaranteed(rate 500kbps, path A -> B) }
at 3s { remove rival }
at 4s { remove rival }
`,
			want: func(t *testing.T, rep *Report) {
				if rep.Admission == nil {
					t.Fatal("report has no admission section")
				}
				if got := rep.Admission.Departed; got != 0 {
					t.Errorf("Departed = %d, want 0 (rival was never admitted)", got)
				}
				if rep.Admission.Rejected != 1 {
					t.Errorf("Rejected = %d, want 1", rep.Admission.Rejected)
				}
			},
		},
		{
			// Two blocks at the same timestamp fire in file order: the
			// remove precedes the request, so the request is admitted.
			name: "same timestamp, remove first",
			src: `
net :: Net(rate 1Mbps)
run :: Run(seed 1, horizon 8s)
A, B :: Switch
A -> B
at 1s { big :: Guaranteed(rate 500kbps, path A -> B) }
at 5s { remove big }
at 5s { late :: Guaranteed(rate 500kbps, path A -> B) }
`,
			want: func(t *testing.T, rep *Report) {
				for _, f := range rep.Flows {
					if f.Name == "late" && f.Rejected {
						t.Errorf("late rejected although the remove fires first: %s", f.Reason)
					}
				}
			},
		},
		{
			// ...and with the blocks swapped the request fires first and
			// is rejected — deterministically, not racily.
			name: "same timestamp, request first",
			src: `
net :: Net(rate 1Mbps)
run :: Run(seed 1, horizon 8s)
A, B :: Switch
A -> B
at 1s { big :: Guaranteed(rate 500kbps, path A -> B) }
at 5s { late :: Guaranteed(rate 500kbps, path A -> B) }
at 5s { remove big }
`,
			want: func(t *testing.T, rep *Report) {
				for _, f := range rep.Flows {
					if f.Name == "late" && !f.Rejected {
						t.Error("late admitted although it fires before the remove")
					}
				}
			},
		},
		{
			// A link failure while a guaranteed flow is active drops the
			// backlog and arrivals; service resumes after restore.
			name: "link failure under a guaranteed flow",
			src: `
net :: Net(rate 1Mbps)
run :: Run(seed 1, horizon 30s)
A, B, C :: Switch
A -> B; B -> C
g :: Guaranteed(rate 200kbps, path A -> B -> C)
tone :: CBR(rate 200pps, size 1000bit)
tone -> g
at 10s { fail B -> C }
at 20s { restore B -> C }
`,
			want: func(t *testing.T, rep *Report) {
				var link LinkReport
				for _, l := range rep.Links {
					if l.Name == "B->C" {
						link = l
					}
				}
				if link.Drops < 1500 {
					t.Errorf("B->C drops = %d, want ~2000 (10s of 200pps)", link.Drops)
				}
				// ~20s of delivery at 200 pps around the outage.
				if d := rep.Flows[0].Delivered; d < 3500 || d > 4500 {
					t.Errorf("delivered = %d, want about 4000", d)
				}
			},
		},
		{
			// Renegotiation: growing a predicted flow's token rate stops
			// the edge policer from dropping a doubled source.
			name: "renew lifts the edge policer",
			src: `
net :: Net(rate 1Mbps)
run :: Run(seed 1, horizon 20s)
A, B :: Switch
A -> B
f :: Predicted(rate 40kbps, bucket 10kbit, delay 500ms, path A -> B)
cam :: CBR(rate 80pps, size 1000bit)
cam -> f
at 10s { renew f (rate 160kbps, bucket 50kbit) }
`,
			want: func(t *testing.T, rep *Report) {
				fr := rep.Flows[0]
				// First 10s: 80 pps against a 40 pps policer drops ~half
				// (~400). After the renew nothing more is dropped, so the
				// total stays well under what 20s of policing would show.
				if fr.EdgeDropped < 200 || fr.EdgeDropped > 550 {
					t.Errorf("EdgeDropped = %d, want ~400 (policing only before the renew)", fr.EdgeDropped)
				}
				if rep.Admission == nil {
					t.Fatal("report has no admission section")
				}
				if rep.Admission.Admitted != 1 {
					t.Errorf("renew not counted as admitted: %+v", *rep.Admission)
				}
				if len(rep.Warnings) != 0 {
					t.Errorf("unexpected warnings: %v", rep.Warnings)
				}
			},
		},
		{
			// A link event reconfigures rate mid-run; the trace knob
			// reports per-interval utilization curves around it.
			name: "link event with trace",
			src: `
net :: Net(rate 1Mbps)
run :: Run(seed 1, horizon 20s, trace 5s)
A, B :: Switch
A -> B
d :: Datagram(path A -> B)
hose :: Poisson(rate 800pps, size 1000bit)
hose -> d
at 10s { A -> B :: Link(rate 400kbps) }
`,
			want: func(t *testing.T, rep *Report) {
				if len(rep.Trace) != 4 {
					t.Fatalf("trace rows = %d, want 4", len(rep.Trace))
				}
				if rep.Trace[0].Util < 0.5 {
					t.Errorf("pre-event utilization = %v, want ~0.8", rep.Trace[0].Util)
				}
				// After the cut to 400k the hose oversubscribes: the
				// utilization fraction is near 1 of the *new* capacity,
				// and delivered throughput halves.
				if rep.Trace[3].Delivered >= rep.Trace[0].Delivered {
					t.Errorf("delivery did not shrink after the rate cut: %+v", rep.Trace)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.want(t, runSrc(t, tc.src))
		})
	}
}

// Compile-time diagnostics for malformed timelines.
func TestTimelineCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"topology inside a block",
			"A :: Switch\nat 1s { B :: Switch }\n",
			"cannot be declared inside an at block"},
		{"negative time",
			"A, B :: Switch\nA -> B\nat 1s { }\n", // placeholder, replaced below
			""},
		{"remove of a non-flow",
			"A, B :: Switch\nA -> B\nm :: Poisson(rate 5pps)\nd :: Datagram(path A -> B)\nm -> d\nat 1s { remove m }\n",
			`"m" is a Poisson, not a flow`},
		{"remove before arrival",
			"A, B :: Switch\nA -> B\nat 5s { f :: Datagram(path A -> B) }\nat 1s { remove f }\n",
			"does not arrive until"},
		{"attach to a later flow",
			"A, B :: Switch\nA -> B\nm :: Poisson(rate 5pps)\nat 5s { f :: Datagram(path A -> B) }\nat 1s { m -> f }\n",
			"does not arrive until"},
		{"static attach to a dynamic flow",
			"A, B :: Switch\nA -> B\nm :: Poisson(rate 5pps)\nat 5s { f :: Datagram(path A -> B) }\nm -> f\n",
			"attach its traffic inside that at block"},
		{"attach to a flow from a later block",
			"A, B :: Switch\nA -> B\nm :: Poisson(rate 5pps)\nat 1s { m -> f }\nat 5s { f :: Datagram(path A -> B) }\n",
			"later at block"},
		{"link event on an undeclared link",
			"A, B :: Switch\nA -> B\nat 1s { B -> A :: Link(rate 1Mbps) }\n",
			"no link B -> A"},
		{"link event without attributes",
			"A, B :: Switch\nA -> B\nat 1s { A -> B }\n",
			"topology cannot grow mid-run"},
		{"beyond the horizon",
			"run :: Run(horizon 10s)\nA, B :: Switch\nA -> B\nat 60s { fail A -> B }\n",
			"beyond the 10s horizon"},
		{"renew a datagram",
			"A, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nat 1s { renew d (rate 5kbps) }\n",
			"no spec to renew"},
		{"churn without a path",
			"A, B :: Switch\nA -> B\nc :: Churn(every 1s, hold 5s, rate 10kbps, pps 10pps)\n",
			"needs a path"},
		{"churn without arrivals",
			"A, B :: Switch\nA -> B\nc :: Churn(hold 5s, rate 10kbps, pps 10pps, path A -> B)\n",
			"positive mean inter-arrival"},
	}
	for _, tc := range cases {
		if tc.want == "" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			_, err := compileSrc(t, tc.src, Options{})
			if err == nil {
				t.Fatalf("compiled without error, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
	// An unterminated block is a parse error with the block's position.
	if _, err := Parse("test.ispn", []byte("A, B :: Switch\nA -> B\nat 1s { fail A -> B\n")); err == nil ||
		!strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("unterminated block err = %v", err)
	}
	// Negative event times are lexically impossible ("-1s" does not lex);
	// a zero-time block is legal and fires before the first packet.
	rep := runSrc(t, "A, B :: Switch\nA -> B\nat 0s { f :: Datagram(path A -> B) }\n")
	if len(rep.Flows) != 1 || rep.Flows[0].Rejected {
		t.Fatalf("zero-time arrival failed: %+v", rep.Flows)
	}
}

const churnScenario = `
# Churn determinism workout: predicted calls arriving over a dumbbell.
net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], admission on)
run :: Run(seed 42, horizon 60s, trace 10s)
db :: Dumbbell(left 2, right 2, access 10Mbps, bottleneck 1Mbps)
calls :: Churn(every 500ms, hold 5s, service predicted, rate 64kbps, bucket 10kbit,
               delay 700ms, pps 64pps, size 1000bit, src cbr,
               paths [db.l1 -> db.a -> db.b -> db.r1, db.l2 -> db.a -> db.b -> db.r2])
`

func TestChurnRunsAndIsDeterministic(t *testing.T) {
	a := runSrc(t, churnScenario)
	b := runSrc(t, churnScenario)
	if a.Format() != b.Format() {
		t.Fatalf("two runs of the same churn scenario differ:\n--- a ---\n%s\n--- b ---\n%s", a.Format(), b.Format())
	}
	if len(a.Churns) != 1 {
		t.Fatalf("churn reports = %d, want 1", len(a.Churns))
	}
	ch := a.Churns[0]
	// ~120 arrivals in 60s at 2/s; wide tolerance, but the process must
	// both admit (light start) and reject (saturated bottleneck) some.
	if ch.Arrivals < 60 || ch.Arrivals > 200 {
		t.Errorf("arrivals = %d, want ~120", ch.Arrivals)
	}
	if ch.Admitted == 0 {
		t.Error("churn admitted nothing")
	}
	if ch.Rejected == 0 {
		t.Error("churn saturation rejected nothing — admission control idle?")
	}
	if ch.Departed == 0 {
		t.Error("no churn departures")
	}
	if ch.Delivered == 0 {
		t.Error("churn flows delivered nothing")
	}
	if a.Admission == nil {
		t.Fatal("report has no admission section")
	}
	if a.Admission.Requested != ch.Arrivals {
		t.Errorf("admission requested %d != churn arrivals %d", a.Admission.Requested, ch.Arrivals)
	}
	if !strings.Contains(a.Format(), "churn") {
		t.Errorf("Format lacks the churn section:\n%s", a.Format())
	}
}

// A churn holds on to the sources of calls in progress only: a departed
// call's slot is cleared, so a long session does not keep one source and one
// random stream per call ever admitted. The report (pinned here as produced
// before slots were cleared) does not move, with the oracle's post-horizon
// quiesce walking the cleared slots.
func TestChurnDropsDepartedSources(t *testing.T) {
	s := mustCompile(t, churnScenario, Options{Check: true})
	s.StepTo(s.Horizon)
	ch := s.churns[0]
	live := int64(0)
	for _, src := range ch.srcs {
		if src != nil {
			live++
		}
	}
	if ch.departed == 0 || live != ch.admitted-ch.departed {
		t.Errorf("%d sources retained at the horizon, want %d admitted - %d departed", live, ch.admitted, ch.departed)
	}
	out := s.Finish().Format()
	const want = "f38b921d0bfe7d9963d22407d0026101a2a3355afe1bd4f53126166ee5edc1c3"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
		t.Errorf("churn report changed (sha256 %s, want %s):\n%s", got, want, out)
	}
}

// A departed flow's ids are never reused and its tail packets are not
// stranded: exercised by a heavy churn of short-lived guaranteed circuits.
func TestChurnGuaranteedTeardown(t *testing.T) {
	rep := runSrc(t, `
net :: Net(rate 1Mbps)
run :: Run(seed 7, horizon 30s)
A, B, C :: Switch
A -> B; B -> C
calls :: Churn(every 400ms, hold 2s, service guaranteed, rate 50kbps,
               pps 50pps, size 1000bit, src poisson, path A -> B -> C)
`)
	ch := rep.Churns[0]
	if ch.Admitted == 0 || ch.Departed == 0 {
		t.Fatalf("churn did not cycle guaranteed flows: %+v", ch)
	}
	if ch.Delivered == 0 {
		t.Fatal("no deliveries")
	}
}

// Sub-second trace intervals: float truncation must not eat the last bin.
func TestTraceSubSecondIntervals(t *testing.T) {
	rep := runSrc(t, `
run :: Run(seed 1, horizon 10s, trace 100ms)
A, B :: Switch
A -> B
d :: Datagram(path A -> B)
g :: Poisson(rate 100pps, size 1000bit)
g -> d
at 5s { fail A -> B }
`)
	if len(rep.Trace) != 100 {
		t.Fatalf("trace rows = %d, want 100", len(rep.Trace))
	}
	out := rep.Format()
	if !strings.Contains(out, "trace (0.1s intervals)") {
		t.Errorf("Format renders sub-second interval wrong:\n%s", out[:200])
	}
}

// Elements declared in an at block do not exist before it: chains may not
// smuggle an event source into t=0.
func TestEventDeclaredSourceTiming(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"static chain to an event source",
			"A, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nat 9s { tone :: CBR(rate 100pps) }\ntone -> d\n",
			"attach it inside that at block"},
		{"event chain before the source exists",
			"A, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nat 1s { tone -> d }\nat 9s { tone :: CBR(rate 100pps) }\n",
			"later at block"},
		{"event chain earlier than the source's block",
			"A, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nat 9s { tone :: CBR(rate 100pps) }\nat 1s { tone -> d }\n",
			"does not arrive until"},
		{"event TokenBucket on a static chain",
			"A, B :: Switch\nA -> B\nd :: Datagram(path A -> B)\nhose :: Poisson(rate 100pps)\nat 9s { shape :: TokenBucket(rate 50pps, depth 10) }\nhose -> shape -> d\n",
			"attach it inside that at block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := compileSrc(t, tc.src, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
	// Attached inside its own block, the source starts at the block time.
	rep := runSrc(t, `
run :: Run(seed 1, horizon 10s)
A, B :: Switch
A -> B
d :: Datagram(path A -> B)
at 9s {
    tone :: CBR(rate 100pps, size 1000bit)
    tone -> d
}
`)
	if d := rep.Flows[0].Delivered; d < 50 || d > 150 {
		t.Fatalf("delivered = %d, want ~100 (the source must run only from 9s)", d)
	}
}
