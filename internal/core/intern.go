package core

// Path interning: every distinct hop sequence a network ever routes is
// stored once, in a table owned by the Network, and flows refer to it by a
// dense 32-bit id. At million-flow scale the per-flow copy of a path (a
// []string plus its backing array, repeated for every flow sharing the
// route) dominated flow state; interned, a path costs its storage once and
// each flow four bytes. The table also caches the resolved output ports of
// each path, so the request/release/renegotiate/reroute machinery stops
// re-resolving name pairs through topology maps on every call.
//
// Interning is append-only and control-plane-only (flow setup, reroutes),
// so no locking is needed and ids are stable for the lifetime of the run.
// Ports are cached at intern time: topology links are never removed, and
// SetLink mutates port objects in place, so a cached []*topology.Port can
// never go stale.
//
// A path is found by a fixed-constant FNV-1a hash of its hop names, computed
// in place, and a hit is confirmed name by name: paths whose hashes collide
// share a chain through the next column, so a collision costs a chain step,
// never a wrong id.

import (
	"slices"

	"ispn/internal/topology"
)

// PathID names one interned hop sequence. The zero id is the first path
// interned, not a sentinel — a Flow always holds a valid id.
type PathID uint32

// endOfChain ends a hash chain in pathTable.next.
const endOfChain = ^PathID(0)

// pathTable is the network's intern store. paths, ports and next are
// columns indexed by PathID.
type pathTable struct {
	ids   map[uint64]PathID // path hash -> newest path interned with it
	next  []PathID          // the previous path with the same hash, or endOfChain
	paths [][]string
	ports [][]*topology.Port
}

// FNV-1a, 64 bit. The constants are fixed, so a path hashes the same in
// every run and every process.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashPath hashes the hop names with a zero byte after each, so ["ab"] and
// ["a", "b"] hash apart.
func hashPath(path []string) uint64 {
	h := uint64(fnvOffset)
	for _, s := range path {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
		h *= fnvPrime // the separator: a zero byte, whose xor changes nothing
	}
	return h
}

// InternPath returns the id of the given hop sequence, interning it (and
// resolving its ports) on first sight. The path is copied, so callers may
// reuse their argument slice. A path with an unknown node or a missing link
// is an error and interns nothing.
func (n *Network) InternPath(path []string) (PathID, error) {
	t := &n.intern
	h := hashPath(path)
	head, ok := t.ids[h]
	if !ok {
		head = endOfChain
	}
	for id := head; id != endOfChain; id = t.next[id] {
		if slices.Equal(t.paths[id], path) {
			return id, nil
		}
	}
	ports, err := n.topo.ResolvePath(path)
	if err != nil {
		return 0, err
	}
	id := PathID(len(t.paths))
	if t.ids == nil {
		t.ids = make(map[uint64]PathID)
	}
	t.ids[h] = id
	t.next = append(t.next, head)
	t.paths = append(t.paths, slices.Clone(path))
	t.ports = append(t.ports, ports)
	return id, nil
}

// pathPortsByID returns the cached output ports along an interned path.
// Shared slice; do not mutate.
func (n *Network) pathPortsByID(id PathID) []*topology.Port { return n.intern.ports[id] }

// portsOf returns a flow's output ports from the intern cache.
func (n *Network) portsOf(f *Flow) []*topology.Port { return n.intern.ports[f.PathID] }
