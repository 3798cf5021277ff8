package scenario

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// The annotated examples in docs/SCENARIO.md must stay compilable: every
// untagged fenced block that contains a declaration is parsed and compiled
// (not simulated) here.
func TestScenarioDocExamplesCompile(t *testing.T) {
	data, err := os.ReadFile("../../docs/SCENARIO.md")
	if err != nil {
		t.Fatalf("read docs/SCENARIO.md: %v", err)
	}
	parts := strings.Split(string(data), "```")
	// parts alternates prose / fence body; odd indices are fenced blocks.
	examples := 0
	for i := 1; i < len(parts); i += 2 {
		body := parts[i]
		if !strings.HasPrefix(body, "\n") { // tagged fence, e.g. ```ebnf
			continue
		}
		if !strings.Contains(body, "::") {
			continue
		}
		examples++
		name := fmt.Sprintf("SCENARIO.md example %d", examples)
		f, err := Parse(name, []byte(body))
		if err != nil {
			t.Errorf("%s does not parse: %v", name, err)
			continue
		}
		if _, err := Compile(f, Options{}); err != nil {
			t.Errorf("%s does not compile: %v", name, err)
		}
	}
	if examples < 3 {
		t.Fatalf("found %d scenario examples in docs/SCENARIO.md, want >= 3", examples)
	}
}

// TestScenarioDocArgTables keeps docs/SCENARIO.md's Net, Reroute, Link and
// TCP argument tables in step with the compiler: each lists exactly the
// argument names the compiler accepts, in the order it documents them.
func TestScenarioDocArgTables(t *testing.T) {
	data, err := os.ReadFile("../../docs/SCENARIO.md")
	if err != nil {
		t.Fatalf("read docs/SCENARIO.md: %v", err)
	}
	doc := string(data)
	// table returns the first-column names of the first table after the
	// heading line.
	table := func(heading string) []string {
		i := strings.Index(doc, heading)
		if i < 0 {
			t.Fatalf("docs/SCENARIO.md has no %q", heading)
		}
		var names []string
		for _, line := range strings.Split(doc[i:], "\n")[1:] {
			if !strings.HasPrefix(line, "|") {
				if len(names) > 0 {
					break
				}
				continue
			}
			if cells := strings.Split(line, "`"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
				names = append(names, cells[1])
			}
		}
		return names
	}
	for _, tc := range []struct {
		heading string
		want    []string
	}{
		{"**`Net(...)`**", netArgNames},
		{"**`Reroute(...)`**", rerouteArgNames},
		{"#### Per-link scheduling profiles", linkArgNames},
		{"**`TCP(...)`**", tcpArgNames},
	} {
		if got := table(tc.heading); !slices.Equal(got, tc.want) {
			t.Errorf("%s table lists %v, the compiler accepts %v", tc.heading, got, tc.want)
		}
	}
}
