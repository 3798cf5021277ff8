package scenario

import (
	"fmt"

	"ispn/internal/sim"
)

// Topology generators. A generator declaration such as
//
//	db :: Dumbbell(left 3, right 3, bottleneck 1Mbps, access 10Mbps)
//
// expands into switches scoped under the element's name (db.a, db.b, db.l1,
// …) plus the duplex links joining them, so scenario files refer to
// generated switches exactly like hand-declared ones. The Random generator
// draws its extra edges from a stream derived from (run seed, element
// name), so a given (file, seed) pair always produces the same topology.

func (c *compiler) generate(d *Decl) {
	name := d.Names[0]
	a := c.argsOf(d)
	rate := a.bitrate("rate", c.net.Config().LinkRate) // Dumbbell's row has none: access and bottleneck
	delay := a.duration("delay", c.net.Config().PropDelay)
	sub := func(role string) string { return name.Text + "." + role }
	duplex := func(x, y string) {
		c.addLink(x, y, rate, delay, nil, name.Pos)
		c.addLink(y, x, rate, delay, nil, name.Pos)
	}
	switch d.Kind {
	case "Star":
		leaves := a.count("leaves", 4)
		a.finish()
		if leaves < 1 {
			c.failf(d.KindPos, "Star needs at least one leaf")
		}
		hub := sub("hub")
		c.addSwitch(hub, name.Pos)
		for i := 1; i <= leaves; i++ {
			leaf := sub(fmt.Sprintf("leaf%d", i))
			c.addSwitch(leaf, name.Pos)
			duplex(leaf, hub)
		}

	case "Dumbbell":
		left := a.count("left", 2)
		right := a.count("right", 2)
		access := a.bitrate("access", rate)
		bottleneck := a.bitrate("bottleneck", rate)
		a.finish()
		if left < 1 || right < 1 {
			c.failf(d.KindPos, "Dumbbell needs at least one switch on each side")
		}
		ca, cb := sub("a"), sub("b")
		c.addSwitch(ca, name.Pos)
		c.addSwitch(cb, name.Pos)
		c.addLink(ca, cb, bottleneck, delay, nil, name.Pos)
		c.addLink(cb, ca, bottleneck, delay, nil, name.Pos)
		for i := 1; i <= left; i++ {
			l := sub(fmt.Sprintf("l%d", i))
			c.addSwitch(l, name.Pos)
			c.addLink(l, ca, access, delay, nil, name.Pos)
			c.addLink(ca, l, access, delay, nil, name.Pos)
		}
		for i := 1; i <= right; i++ {
			r := sub(fmt.Sprintf("r%d", i))
			c.addSwitch(r, name.Pos)
			c.addLink(r, cb, access, delay, nil, name.Pos)
			c.addLink(cb, r, access, delay, nil, name.Pos)
		}

	case "ParkingLot":
		hops := a.count("hops", 4)
		a.finish()
		if hops < 1 {
			c.failf(d.KindPos, "ParkingLot needs at least one hop")
		}
		prev := ""
		for i := 1; i <= hops+1; i++ {
			s := sub(fmt.Sprintf("s%d", i))
			c.addSwitch(s, name.Pos)
			if prev != "" {
				duplex(prev, s)
			}
			prev = s
		}

	case "Random":
		nodes := a.count("nodes", 8)
		degree := a.count("degree", 3)
		a.finish()
		if nodes < 3 {
			c.failf(d.KindPos, "Random needs at least 3 nodes")
		}
		if degree < 2 {
			c.failf(d.KindPos, "Random needs degree >= 2 (a ring)")
		}
		names := make([]string, nodes)
		for i := range names {
			names[i] = sub(fmt.Sprintf("n%d", i+1))
			c.addSwitch(names[i], name.Pos)
		}
		// A ring guarantees the graph is connected (degree 2)…
		for i := range names {
			duplex(names[i], names[(i+1)%nodes])
		}
		// …then random chords raise the mean degree toward the target.
		// Edge count for mean degree g on n nodes is n·g/2; the ring
		// contributes n.
		want := nodes * degree / 2
		edges := nodes
		rng := sim.DeriveRNG(c.seed, "gen:"+name.Text)
		for tries := 0; edges < want && tries < 64*nodes; tries++ {
			i, j := rng.Intn(nodes), rng.Intn(nodes)
			if i == j || c.hasLink(names[i], names[j]) {
				continue
			}
			duplex(names[i], names[j])
			edges++
		}
	}
}
