package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestInternPathProbeAllocatesNothing(t *testing.T) {
	n := memberChain(Config{Seed: 1})
	known, fresh := []string{"S1", "S2", "S3"}, []string{"S2", "S3"}
	id := internPath(t, n, known)
	if allocs := testing.AllocsPerRun(100, func() {
		if got, _ := n.InternPath(known); got != id {
			t.Fatalf("known path re-interned as %d, was %d", got, id)
		}
	}); allocs != 0 {
		t.Fatalf("probing a known path allocates %v times, want 0", allocs)
	}
	before := len(n.intern.paths)
	id2 := internPath(t, n, fresh)
	if id2 == id || len(n.intern.paths) != before+1 || internPath(t, n, fresh) != id2 || len(n.intern.paths) != before+1 {
		t.Fatalf("new path interned as %d next to %d, table grew %d -> %d; want one new entry",
			id2, id, before, len(n.intern.paths))
	}
	fresh[0] = "S1" // the table keeps its own copy of the hops
	if internPath(t, n, []string{"S2", "S3"}) != id2 || internPath(t, n, known) != id {
		t.Fatal("interned ids moved after the caller reused its slice")
	}
}

// TestInternPathMatchesStringKeys interns seeded random paths, with repeats
// and with bad ones mixed in, and checks every id against a model keyed by
// the joined hop names: ids are dense, in first-sight order, and a bad path
// takes none.
func TestInternPathMatchesStringKeys(t *testing.T) {
	const switches = 6
	n := New(Config{Seed: 1})
	names := make([]string, switches)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		n.AddSwitch(names[i])
	}
	for i := range names {
		for j := range names {
			if i != j && (i+j)%5 != 0 { // some pairs stay unlinked
				n.Connect(names[i], names[j])
			}
		}
	}
	model := make(map[string]PathID)
	r := rand.New(rand.NewSource(7))
	var hits, bad int
	for step := 0; step < 20000; step++ {
		path := make([]string, 1+r.Intn(5))
		for i := range path {
			path[i] = names[r.Intn(switches)]
			if r.Intn(400) == 0 {
				path[i] = "nope"
			}
		}
		key := strings.Join(path, "\x00")
		_, resolveErr := n.topo.ResolvePath(path)
		id, err := n.InternPath(path)
		if (err != nil) != (resolveErr != nil) {
			t.Fatalf("step %d: %v interned with error %v, resolves with %v", step, path, err, resolveErr)
		}
		if err != nil {
			bad++
			if len(n.intern.paths) != len(model) || len(n.intern.next) != len(model) {
				t.Fatalf("step %d: bad path %v grew the table to %d rows, model has %d", step, path, len(n.intern.paths), len(model))
			}
			continue
		}
		want, seen := model[key]
		if !seen {
			want = PathID(len(model))
			model[key] = want
		} else {
			hits++
		}
		if id != want {
			t.Fatalf("step %d: %v interned as %d, model says %d", step, path, id, want)
		}
	}
	if len(n.intern.paths) != len(model) || hits < 1000 || bad < 1000 {
		t.Fatalf("%d rows for %d model paths, %d repeats, %d bad paths; want equal rows and both counts >= 1000",
			len(n.intern.paths), len(model), hits, bad)
	}
}

// TestInternPathCollisionChains plants hash collisions: a path whose hash is
// already taken goes on the chain and gets its own id, and a lookup whose
// chain starts at another path steps past it to the right one.
func TestInternPathCollisionChains(t *testing.T) {
	n := memberChain(Config{Seed: 1})
	a, b := []string{"S1", "S2", "S3"}, []string{"S2", "S3"}
	ida := internPath(t, n, a)
	n.intern.ids[hashPath(b)] = ida // b's hash now leads to a
	idb := internPath(t, n, b)
	if idb == ida || len(n.intern.paths) != 2 || n.intern.next[idb] != ida {
		t.Fatalf("colliding path interned as %d next to %d (%d rows, chains on to %d); want a new id chained to %d",
			idb, ida, len(n.intern.paths), n.intern.next[idb], ida)
	}
	n.intern.ids[hashPath(a)] = idb // a's hash now leads through b
	if allocs := testing.AllocsPerRun(100, func() {
		if got := internPath(t, n, a); got != ida {
			t.Fatalf("chained path found as %d, want %d", got, ida)
		}
	}); allocs != 0 {
		t.Fatalf("a chain step allocates %v times, want 0", allocs)
	}
	if got := internPath(t, n, b); got != idb || len(n.intern.paths) != 2 {
		t.Fatalf("chain head found as %d with %d rows, want %d with 2", got, len(n.intern.paths), idb)
	}
}

// TestInternPathRefusesBadPaths: an unknown node or a missing link is an
// error, and the table is left as it was.
func TestInternPathRefusesBadPaths(t *testing.T) {
	n := memberChain(Config{Seed: 1})
	internPath(t, n, []string{"S1", "S2"})
	for _, path := range [][]string{{"nope"}, {"S1", "nope"}, {"nope", "S1"}, {"S1", "S3"}, {"S2", "S1"}} {
		if id, err := n.InternPath(path); err == nil {
			t.Errorf("%v interned as %d, want an error", path, id)
		}
	}
	if len(n.intern.paths) != 1 || len(n.intern.ids) != 1 || len(n.intern.next) != 1 || len(n.intern.ports) != 1 {
		t.Fatalf("bad paths left rows behind: %d paths, %d hashes", len(n.intern.paths), len(n.intern.ids))
	}
}
