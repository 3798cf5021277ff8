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
// step with the element table: an argument table lists exactly the arguments
// its row accepts, in the row's order, and a kind table (generators, sources)
// lists exactly the kinds of its class, each with its arguments. Every row
// has a table or is named here as documented in prose.
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
	kindTables := map[elemClass]string{classGenerator: "Topology **generators**", classSource: "### Traffic sources"}
	kindTable := map[elemClass]map[string][]string{}
	for _, cls := range []elemClass{classGenerator, classSource} {
		kindTable[cls] = map[string][]string{}
		for _, r := range rows(kindTables[cls]) {
			kindTable[cls][names(r[0])[0]] = names(r[1])
		}
	}
	for _, e := range elements {
		var heading string
		switch {
		case e.class == classGenerator || e.class == classSource:
			got, ok := kindTable[e.class][e.kind]
			if !ok || !slices.Equal(got, e.args) {
				t.Errorf("%s table lists %s as %v, the element table accepts %v", kindTables[e.class], e.kind, got, e.args)
			}
			delete(kindTable[e.class], e.kind)
			continue
		case e.class == classLink:
			heading = "#### Per-link scheduling profiles"
		case e.kind == "Churn":
			heading = "### `Churn(...)`"
		case e.kind == "Switch", e.kind == "Datagram", e.class == classLinkEvent, e.class == classRenew:
			continue // documented in prose
		default:
			heading = "**`" + e.kind + "(...)`**"
		}
		var got []string
		for _, r := range rows(heading) {
			got = append(got, names(r[0])...)
		}
		if !slices.Equal(got, e.args) {
			t.Errorf("%s table lists %v, the element table accepts %v", heading, got, e.args)
		}
	}
	for _, cls := range []elemClass{classGenerator, classSource} {
		for _, kind := range slices.Sorted(maps.Keys(kindTable[cls])) {
			t.Errorf("%s table lists %s, which the element table does not have", kindTables[cls], kind)
		}
	}
}
