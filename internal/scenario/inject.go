package scenario

// Runtime event injection: the serve control plane compiles timeline verbs
// against a live Sim using the very compiler that built it, so injected
// input is the same `at <time> { ... }` syntax as a scenario file, with the
// same name resolution, the same validation, and the same file:line:col
// diagnostics. An injection before Start slots into the pending timeline
// exactly as if the blocks had been appended to the file — a served run
// with scripted injections is byte-identical to the equivalent batch
// scenario. An injection after Start schedules straight onto the control
// engine, where it fires at a shard barrier like every other timeline event.

import "maps"

// InjectEvents parses src — which may contain only `at` blocks — and
// compiles every block into the running scenario. name labels diagnostics
// (it need not exist on disk). On success it returns the number of engine
// events scheduled; on failure it returns a *Error carrying name:line:col
// and the Sim is untouched — a failed injection rolls back completely, so
// partial blocks never fire.
func (s *Sim) InjectEvents(name string, src []byte) (int, error) {
	f, err := Parse(name, src)
	if err != nil {
		return 0, err
	}
	if len(f.Decls) > 0 {
		d := f.Decls[0]
		return 0, errf(name, d.KindPos, "injected input may contain only at blocks; declare %s inside one (at <time> { ... })", d.Kind)
	}
	if len(f.Chains) > 0 {
		ch := f.Chains[0]
		return 0, errf(name, ch.Ends[0].Pos, "injected input may contain only at blocks; put this chain inside one (at <time> { ... })")
	}
	return s.comp.inject(s, f)
}

// inject compiles f's event blocks against the live Sim. The compiler's
// symbol tables still hold the whole scenario, so injected statements see
// every declared switch, link and flow; new traffic elements the blocks
// declare are registered by the same pass 1 a file's own blocks go through.
// A refused injection is rolled back: every compiler and Sim mutation undone.
func (c *compiler) inject(s *Sim, f *File) (int, error) {
	// Point diagnostics at the injected source, validate against the
	// session's effective horizon (Options may have overridden the file's),
	// and — once the clock is running — refuse events in the past.
	savedFile, savedHorizon, savedMinAt := c.file, c.fileHorizon, c.minAt
	defer func() { c.file, c.fileHorizon, c.minAt = savedFile, savedHorizon, savedMinAt }()
	savedNextID := c.nextID
	c.file = f
	c.fileHorizon = s.Horizon
	if s.started {
		c.minAt = s.Now()
	}
	// Runtime ids (churn arrivals) continue from the same allocator, so the
	// compiler must pick up where the runtime left off — and hand back.
	c.nextID = s.nextID

	// Snapshot everything the block compilers may touch, for rollback.
	nEvents, nFlows := len(s.events), len(s.Flows)
	savedAttached := maps.Clone(c.attached)

	if err := c.injectBlocks(f.Events); err != nil {
		// Roll back: forget the names this injection registered (a name it
		// failed to register still belongs to its earlier declaration), and
		// everything its blocks appended.
		for _, d := range c.allDecls() { // c.file is f: the injected block declarations
			for _, n := range d.Names {
				if c.decls[n.Text] == d {
					delete(c.decls, n.Text)
					delete(c.dynNames, n.Text)
					delete(c.declAt, n.Text)
					delete(c.flows, n.Text)
				}
			}
		}
		s.events = s.events[:nEvents]
		s.Flows = s.Flows[:nFlows]
		c.attached = savedAttached
		c.nextID = savedNextID
		return 0, err
	}
	s.nextID = c.nextID
	if s.started {
		// Running: arm the new events now. Not running yet: the new events
		// sit in s.events behind the file's own, and Start will schedule them
		// all in order — identical to a batch compile of the file with these
		// blocks appended.
		s.arm(s.events[nEvents:])
	}
	return len(s.events) - nEvents, nil
}

// injectBlocks is pass 1 and pass 7 for an injection's at blocks; the first
// error ends it.
func (c *compiler) injectBlocks(blocks []*EventBlock) (err error) {
	defer catch(&err)
	c.registerArrivals(blocks)
	for _, b := range blocks {
		c.eventBlock(b)
	}
	return nil
}
