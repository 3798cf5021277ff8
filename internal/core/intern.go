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

import "ispn/internal/topology"

// PathID names one interned hop sequence. The zero id is the first path
// interned, not a sentinel — a Flow always holds a valid id.
type PathID uint32

// pathTable is the network's intern store.
type pathTable struct {
	ids   map[string]PathID
	paths [][]string
	ports [][]*topology.Port
	key   []byte // scratch for InternPath's NUL-joined probe key
}

// InternPath returns the id of the given hop sequence, interning it (and
// resolving its ports) on first sight. The path is copied, so callers may
// reuse their argument slice. Unknown nodes or links panic, exactly as
// topology.PathPorts does — interning happens after validation.
func (n *Network) InternPath(path []string) PathID {
	if n.intern.ids == nil {
		n.intern.ids = make(map[string]PathID)
	}
	b := n.intern.key[:0]
	for i, s := range path {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, s...)
	}
	n.intern.key = b
	// ids[string(b)] probes without copying b; the key string is only
	// materialised when the path is new.
	if id, ok := n.intern.ids[string(b)]; ok {
		return id
	}
	id := PathID(len(n.intern.paths))
	n.intern.ids[string(b)] = id
	n.intern.paths = append(n.intern.paths, append([]string(nil), path...))
	n.intern.ports = append(n.intern.ports, n.topo.PathPorts(path))
	return id
}

// pathPortsByID returns the cached output ports along an interned path.
// Shared slice; do not mutate.
func (n *Network) pathPortsByID(id PathID) []*topology.Port { return n.intern.ports[id] }

// portsOf returns a flow's output ports from the intern cache.
func (n *Network) portsOf(f *Flow) []*topology.Port { return n.intern.ports[f.PathID] }
