package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// rollbackBase is the session the rollback tests inject into: one circuit
// fed by one source, with room for a second on A -> B -> C.
const rollbackBase = `
net :: Net(rate 1Mbps, admission on)
run :: Run(seed 3, horizon 4s)
A, B, C :: Switch
A -> B -> C
f :: Guaranteed(rate 100kbps, bucket 10kbit, path A -> B -> C)
src :: CBR(rate 50pps, size 1000bit)
src -> f
`

// rollbackValid declares, attaches and later removes the names every
// refused injection below also uses.
const rollbackValid = `
at 2s {
    g :: Guaranteed(rate 100kbps, bucket 10kbit, path A -> B -> C)
    tone :: CBR(rate 50pps, size 1000bit)
    tone -> g
}
at 3s { remove g }
`

// TestRefusedInjectionRollsBack refuses an injection at each point it can
// fail — the first block, a middle statement of a later block, a declaration
// a later statement uses, an attachment to a static flow after another one
// landed — before and after Start. A refusal must leave the session exactly
// as it was: the static flow keeps its filters and sources, its report is
// the run with no injection, and a valid injection reusing the refused names
// lands afterwards and gives the report of a session that only ever saw that
// injection.
func TestRefusedInjectionRollsBack(t *testing.T) {
	refused := []struct{ name, src, want string }{
		{"first block", `
at 2s {
    g :: Guaranteed(rate 100kbps, bucket 10kbit, path A -> B -> C)
    tone :: CBR(rate 50pps, size 1000bit)
    tone -> g
    remove ghost
}
at 3s { remove g }
`, `inject.ispn:6:12: unknown name "ghost" in a remove`},
		{"middle of a later block", `
at 2s {
    g :: Guaranteed(rate 100kbps, bucket 10kbit, path A -> B -> C)
    tone :: CBR(rate 50pps, size 1000bit)
    tone -> g
}
at 3s {
    renew g (rate 120kbps)
    fail A -> C
    remove g
}
`, `inject.ispn:9:10: no link A -> C is declared`},
		{"declaration a later statement uses", `
at 2s {
    tone :: CBR(rate 50pps, size 1000bit)
    g :: Guaranteed(rate 100kbps, bucket 10kbit, path A -> B -> C, loss 1%)
    tone -> g
}
`, `inject.ispn:4:68: Guaranteed has no argument "loss" (accepted: path, rate, bucket)`},
		{"attachment to a static flow", `
at 2s {
    tone :: CBR(rate 50pps, size 1000bit)
    tb :: TokenBucket(rate 50pps, depth 5)
    tone -> f
    src -> tb -> f
}
`, `inject.ispn:6:5: source "src" is already attached; a source feeds one flow`},
	}
	for _, started := range []bool{false, true} {
		baseline := rollbackReport(t, started)
		withValid := rollbackReport(t, started, rollbackValid)
		for _, tc := range refused {
			s := rollbackSession(t, started)
			f := s.FlowByName("f")
			filters, sources := len(f.filters), len(f.sources)
			if _, err := s.InjectEvents("inject.ispn", []byte(tc.src)); err == nil || err.Error() != tc.want {
				t.Fatalf("%s (started %v): err = %v, want %s", tc.name, started, err, tc.want)
			}
			if len(f.filters) != filters || len(f.sources) != sources {
				t.Errorf("%s (started %v): static flow f has %d filters and %d sources after the refusal, want %d and %d",
					tc.name, started, len(f.filters), len(f.sources), filters, sources)
			}
			if got := s.Finish().Format(); got != baseline {
				t.Errorf("%s (started %v): report after the refusal differs from the run without it:\n%s\nwant:\n%s",
					tc.name, started, got, baseline)
			}

			s = rollbackSession(t, started)
			_, _ = s.InjectEvents("inject.ispn", []byte(tc.src)) // refused, as checked above
			if _, err := s.InjectEvents("inject.ispn", []byte(rollbackValid)); err != nil {
				t.Fatalf("%s (started %v): valid injection after the refusal: %v", tc.name, started, err)
			}
			if got := s.Finish().Format(); got != withValid {
				t.Errorf("%s (started %v): report differs from the valid injection alone:\n%s\nwant:\n%s",
					tc.name, started, got, withValid)
			}
		}
	}
}

// rollbackSession compiles rollbackBase and, when started, steps it one
// simulated second.
func rollbackSession(t *testing.T, started bool) *Sim {
	t.Helper()
	s := mustCompile(t, rollbackBase, Options{})
	if started {
		s.StepTo(1)
	}
	return s
}

// rollbackReport is the final report of rollbackSession after the given
// injections.
func rollbackReport(t *testing.T, started bool, inject ...string) string {
	t.Helper()
	s := rollbackSession(t, started)
	for _, src := range inject {
		if _, err := s.InjectEvents("inject.ispn", []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	return s.Finish().Format()
}

// FuzzInjectEvents feeds arbitrary input to InjectEvents on a compiled
// library scenario, before Start or one simulated second after it. Any input
// gives an error or a count of scheduled events, never a panic, and a refused
// input leaves the flow table and the pending events as they were.
func FuzzInjectEvents(f *testing.F) {
	entries, err := os.ReadDir(libraryDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(libraryDir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if _, blocks := splitAtBlocks(string(src)); blocks != "" {
			f.Add(blocks, false)
			f.Add(blocks, true)
		}
	}
	f.Add("at 90s { late :: Datagram(path db.l1 -> db.a) }", true)
	base, err := os.ReadFile(filepath.Join(libraryDir, "churn-admission.ispn"))
	if err != nil {
		f.Fatal(err)
	}
	file, err := Parse("churn-admission.ispn", base)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string, started bool) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		s, err := Compile(file, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if started {
			s.StepTo(1)
		}
		flows, events, pending := len(s.Flows), len(s.events), s.Net.Engine().Pending()
		n, err := s.InjectEvents("fuzz.ispn", []byte(src))
		if err != nil {
			if n != 0 || len(s.Flows) != flows || len(s.events) != events || s.Net.Engine().Pending() != pending {
				t.Fatalf("refused injection (%v) changed the session: %d scheduled, flows %d -> %d, events %d -> %d, pending %d -> %d",
					err, n, flows, len(s.Flows), events, len(s.events), pending, s.Net.Engine().Pending())
			}
			return
		}
		if n != len(s.events)-events {
			t.Fatalf("%d events scheduled, %d added", n, len(s.events)-events)
		}
	})
}
