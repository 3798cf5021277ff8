package scenario

import (
	"fmt"
	"maps"
	"os"
	"regexp"
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

// TestScenarioDocArgTables keeps every element table in docs/SCENARIO.md in
// step with the compiler: an argument table lists exactly the argument names
// the compiler accepts, in the order it documents them, and a kind table
// (generators, sources) lists exactly the kinds, each with its arguments.
func TestScenarioDocArgTables(t *testing.T) {
	data, err := os.ReadFile("../../docs/SCENARIO.md")
	if err != nil {
		t.Fatalf("read docs/SCENARIO.md: %v", err)
	}
	doc := string(data)
	// rows returns the cells of the body rows of the first table after the
	// heading line.
	rows := func(heading string) [][]string {
		i := strings.Index(doc, heading)
		if i < 0 {
			t.Fatalf("docs/SCENARIO.md has no %q", heading)
		}
		var out [][]string
		for _, line := range strings.Split(doc[i:], "\n")[1:] {
			if !strings.HasPrefix(line, "|") {
				if len(out) > 0 {
					break
				}
				continue
			}
			if strings.HasPrefix(line, "| `") {
				out = append(out, strings.Split(line, "|")[1:])
			}
		}
		return out
	}
	// names returns the backquoted names of a cell, skipping the defaults
	// in parentheses.
	paren := regexp.MustCompile(`\([^)]*\)`)
	names := func(cell string) []string {
		parts := strings.Split(paren.ReplaceAllString(cell, ""), "`")
		var out []string
		for i := 1; i < len(parts); i += 2 {
			out = append(out, parts[i])
		}
		return out
	}
	for _, tc := range []struct {
		heading string
		want    []string
	}{
		{"**`Net(...)`**", netArgNames},
		{"**`Run(...)`**", runArgNames},
		{"**`Reroute(...)`**", rerouteArgNames},
		{"**`RouteCache(...)`**", routeCacheArgNames},
		{"#### Per-link scheduling profiles", linkArgNames},
		{"**`Guaranteed(...)`**", flowArgNames["Guaranteed"]},
		{"**`Predicted(...)`**", flowArgNames["Predicted"]},
		{"**`TCP(...)`**", tcpArgNames},
		{"**`TokenBucket(...)`**", tokenBucketArgNames},
		{"### `Churn(...)`", churnArgNames},
	} {
		var got []string
		for _, r := range rows(tc.heading) {
			got = append(got, names(r[0])...)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s table lists %v, the compiler accepts %v", tc.heading, got, tc.want)
		}
	}
	for _, tc := range []struct {
		heading string
		want    map[string][]string
	}{
		{"Topology **generators**", generatorArgNames},
		{"### Traffic sources", sourceArgNames},
	} {
		got := map[string][]string{}
		for _, r := range rows(tc.heading) {
			got[names(r[0])[0]] = names(r[1])
		}
		if !maps.EqualFunc(got, tc.want, slices.Equal[[]string]) {
			t.Errorf("%s table lists %v, the compiler accepts %v", tc.heading, got, tc.want)
		}
	}
}
