package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ispn/internal/experiments"
)

// TestUsageVerbsSortedAndComplete pins the generated usage text: every verb
// appears in sorted order with its flag summary, so help cannot drift from
// the dispatcher.
func TestUsageVerbsSortedAndComplete(t *testing.T) {
	u := buildUsage()
	wantVerbs := []string{"check", "fuzz", "run", "scenarios", "serve"}
	if len(verbs) != len(wantVerbs) {
		t.Fatalf("verb table has %d entries, dispatcher handles %d", len(verbs), len(wantVerbs))
	}
	names := make([]string, len(verbs))
	for i, v := range verbs {
		names[i] = v.name
	}
	sort.Strings(names)
	for i, want := range wantVerbs {
		if names[i] != want {
			t.Fatalf("verb table = %v, want %v", names, wantVerbs)
		}
	}
	// Sorted order in the rendered text: each verb's help starts at a line
	// beginning with two spaces + name, and those lines appear in order.
	last := -1
	for _, v := range wantVerbs {
		idx := strings.Index(u, "\n  "+v+" ")
		if idx < 0 {
			idx = strings.Index(u, "\n  "+v+"\n")
		}
		if idx < 0 {
			t.Fatalf("usage lacks verb %q:\n%s", v, u)
		}
		if idx < last {
			t.Errorf("verb %q out of sorted order in usage", v)
		}
		last = idx
	}
	for _, v := range verbs {
		if v.flags != "" && !strings.Contains(u, "flags: "+v.flags) {
			t.Errorf("usage lacks flag summary for %q (%q)", v.name, v.flags)
		}
	}
	if !strings.Contains(u, "serve") || !strings.Contains(u, "docs/SERVE.md") {
		t.Error("usage does not point serve users at docs/SERVE.md")
	}
}

// TestVerbsHaveLiveDocsAnchors: every verb names a docs/ page, the page
// exists in the repo, is rendered into the usage text, and actually
// documents the verb (mentions "ispnsim <verb>") — so help pointers cannot
// rot as docs are reorganized.
func TestVerbsHaveLiveDocsAnchors(t *testing.T) {
	u := buildUsage()
	for _, v := range verbs {
		if v.docs == "" {
			t.Errorf("verb %q has no docs anchor", v.name)
			continue
		}
		if !strings.Contains(u, "see "+v.docs) {
			t.Errorf("usage does not point %q users at %s", v.name, v.docs)
		}
		page := filepath.Join("..", "..", filepath.FromSlash(v.docs))
		body, err := os.ReadFile(page)
		if err != nil {
			t.Errorf("verb %q docs anchor: %v", v.name, err)
			continue
		}
		if !strings.Contains(string(body), "ispnsim "+v.name) {
			t.Errorf("%s does not mention `ispnsim %s`", v.docs, v.name)
		}
	}
}

// TestUsageExperimentsComplete: every experiment in the table shows up in
// the usage text, in table order (the order `all` runs them).
func TestUsageExperimentsComplete(t *testing.T) {
	u := buildUsage()
	last := -1
	for _, e := range experiments.Catalogue {
		idx := strings.Index(u, "\n  "+e.Name+" ")
		if idx < 0 {
			t.Fatalf("usage lacks experiment %q", e.Name)
		}
		if idx < last {
			t.Errorf("experiment %q out of table order in usage", e.Name)
		}
		last = idx
		if !strings.Contains(u, e.Summary) {
			t.Errorf("usage lacks summary for %q", e.Name)
		}
	}
}
