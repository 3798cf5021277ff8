// Package packet is a test fixture stub: poolownership matches Pool and
// Packet by type name and the internal/packet import-path suffix.
package packet

// Packet is a pooled simulation packet.
type Packet struct {
	FlowID uint32
	Size   int
}

// Pool hands out packets that must be released on every ownership path.
type Pool struct{}

func (p *Pool) Get() *Packet   { return &Packet{} }
func (p *Pool) Put(pk *Packet) {}

// Release returns a packet to its owning pool.
func Release(p *Packet) {}
