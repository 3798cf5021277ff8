package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"ispn/internal/packet"
	"ispn/internal/stats"
	"ispn/internal/tokenbucket"
	"ispn/internal/topology"
)

// memberChain is S1 -> S2 -> S3 on fast links, so policing verdicts are the
// only thing a member's packets can fail.
func memberChain(cfg Config) *Network {
	cfg.LinkRate = 1e9
	n := New(cfg)
	for _, s := range []string{"S1", "S2", "S3"} {
		n.AddSwitch(s)
	}
	n.Connect("S1", "S2")
	n.Connect("S2", "S3")
	return n
}

// TestMembersMatchTokenBuckets drives seeded admit / inject / release /
// re-admit traffic over three aggregates and checks every observable against
// a model that shares nothing with memberSlot: one tokenbucket.Bucket per
// live member, keyed by its handle.
func TestMembersMatchTokenBuckets(t *testing.T) {
	for _, admit := range []bool{false, true} {
		name := "admission-off"
		if admit {
			name = "admission-on"
		}
		t.Run(name, func(t *testing.T) { membersMatchTokenBuckets(t, admit) })
	}
}

func membersMatchTokenBuckets(t *testing.T, admit bool) {
	const steps = 20000
	n := memberChain(Config{Seed: 1, AdmissionControl: admit})
	keys := []struct {
		path  []string
		class uint8
	}{
		{[]string{"S1", "S2"}, 0},
		{[]string{"S1", "S2"}, 1},
		{[]string{"S1", "S2", "S3"}, 0},
	}
	specs := []PredictedSpec{
		{TokenRate: 2e5, BucketBits: 3000, Delay: 0.1},
		{TokenRate: 1e5, BucketBits: 1500, Delay: 0.1},
	}
	// Mirror each port's real-time rate measurement: hooks installed before
	// the admission controller chain onto them, so at the end ν̂ minus the
	// mirror's reading is exactly what the warmup ledger still holds.
	ports := n.pathPortsByID(n.InternPath(keys[2].path))
	mirrors := make(map[*topology.Port]*stats.RateMeter)
	for _, pt := range ports {
		m := stats.NewRateMeter(1.0, 10) // admission.New's defaults
		mirrors[pt] = m
		pt.OnTransmit = func(p *packet.Packet, now float64) { m.Add(now, float64(p.Size)) }
	}

	type agg struct {
		live             int
		total            float64
		offered, dropped int64
	}
	type member struct {
		bucket *tokenbucket.Bucket
		key    int
		spec   PredictedSpec
	}
	aggs := make([]agg, len(keys))
	model := make(map[Member]*member)
	var live []Member
	var conformed, policed, refused, reused int

	aggOf := func(k int) *Aggregate { return n.aggs[aggKey{n.InternPath(keys[k].path), keys[k].class}] }
	check := func(step, k int, h Member) {
		t.Helper()
		a, want := aggOf(k), aggs[k]
		if want.live == 0 {
			if a != nil {
				t.Fatalf("step %d: aggregate %d survives its last member", step, k)
			}
			return
		}
		if a != h.agg {
			t.Fatalf("step %d: handle points outside aggregate %d", step, k)
		}
		if a.Members() != want.live || a.DeclaredTotal() != want.total {
			t.Fatalf("step %d: aggregate %d has %d members declaring %v, model %d declaring %v",
				step, k, a.Members(), a.DeclaredTotal(), want.live, want.total)
		}
		if st := a.Carrier().PolicerStats(); st.Total != want.offered || st.Dropped != want.dropped {
			t.Fatalf("step %d: aggregate %d policer counts %+v, model %d offered / %d dropped",
				step, k, st, want.offered, want.dropped)
		}
	}

	r := rand.New(rand.NewSource(1992))
	for step := 0; step < steps; step++ {
		if r.Intn(4) != 0 { // one step in four shares its instant with the last
			n.Run(r.Float64() * 100e-6)
		}
		now := n.Engine().Now()
		// Inject 45 % of the time; the rest alternates between phases that
		// grow the population and phases that drain it, so aggregates fill
		// up, die with their last member and are created again.
		op, releaseBelow := r.Intn(100), 65
		if (step/2500)%2 == 1 {
			releaseBelow = 85
		}
		switch {
		case len(live) > 0 && op < releaseBelow:
			i := r.Intn(len(live))
			h := live[i]
			m := model[h]
			if op < 45 {
				p := n.Pool().Get()
				p.Size = 200 + r.Intn(1800)
				p.CreatedAt = now
				want := m.bucket.Take(now, float64(p.Size))
				if got := h.Inject(p); got != want {
					t.Fatalf("step %d: Inject(%d bits) = %v, token bucket says %v", step, p.Size, got, want)
				}
				aggs[m.key].offered++
				if want {
					conformed++
				} else {
					policed++
					aggs[m.key].dropped++
				}
				check(step, m.key, h)
				continue
			}
			if h.Rate() != m.spec.TokenRate {
				t.Fatalf("step %d: live member reports rate %v, declared %v", step, h.Rate(), m.spec.TokenRate)
			}
			h.Release()
			if h.Rate() != 0 {
				t.Fatalf("step %d: released member still reports rate %v", step, h.Rate())
			}
			delete(model, h)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			a := &aggs[m.key]
			a.live--
			a.total -= m.spec.TokenRate
			if a.live == 0 {
				*a = agg{} // the carrier and its counters go with the last member
			}
			check(step, m.key, h)
		default:
			k, spec := r.Intn(len(keys)), specs[r.Intn(len(specs))]
			slots := 0
			if a := aggOf(k); a != nil {
				slots = len(a.members)
			}
			h, err := n.RequestPredictedMember(keys[k].path, keys[k].class, spec)
			if err != nil {
				if !admit {
					t.Fatalf("step %d: refused with admission off: %v", step, err)
				}
				refused++
				check(step, k, Member{agg: aggOf(k)})
				continue
			}
			if _, dup := model[h]; dup {
				t.Fatalf("step %d: new member got a live member's slot", step)
			}
			if int(h.idx) < slots {
				reused++
			}
			model[h] = &member{bucket: tokenbucket.New(spec.TokenRate, spec.BucketBits), key: k, spec: spec}
			live = append(live, h)
			aggs[k].live++
			aggs[k].total += spec.TokenRate
			check(step, k, h)
		}
		if step%1000 == 999 {
			for _, a := range n.Aggregates() {
				if a.MemberRateSum() != a.DeclaredTotal() {
					t.Fatalf("step %d: member rates sum to %v, aggregate declares %v",
						step, a.MemberRateSum(), a.DeclaredTotal())
				}
			}
			for _, h := range live {
				if want := model[h].spec.TokenRate; h.Rate() != want {
					t.Fatalf("step %d: member reports rate %v, declared %v", step, h.Rate(), want)
				}
			}
		}
	}
	t.Logf("%d conformed, %d policed, %d refused, %d slot reuses, %d live at the end",
		conformed, policed, refused, reused, len(live))
	if conformed < steps/20 || policed < steps/20 || reused < steps/20 {
		t.Fatalf("run too one-sided to prove anything: %d conformed, %d policed, %d slot reuses",
			conformed, policed, reused)
	}

	for _, h := range live {
		h.Release()
	}
	if got := len(n.Aggregates()); got != 0 {
		t.Fatalf("%d aggregate(s) survive full departure", got)
	}
	if !admit {
		return
	}
	// Every entry is younger than the 3 s warmup, so only Release can have
	// emptied the ledgers: ν̂ must be the measured rate and nothing more.
	now := n.Engine().Now()
	if now >= 3 {
		t.Fatalf("run lasted %v s; ledger entries may have expired on their own", now)
	}
	for _, pt := range ports {
		c := n.admit[pt.Index()]
		if c == nil {
			t.Fatalf("port %d never saw an admission", pt.Index())
		}
		if got, want := c.Utilization(now), mirrors[pt].PeakRate(now); got != want {
			t.Fatalf("port %d: ν̂ = %v with every member gone, measured rate alone is %v — %v bits/s leaked in the ledger",
				pt.Index(), got, want, got-want)
		}
	}
}

func TestMemberSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(memberSlot{}); got != 32 {
		t.Fatalf("memberSlot is %d bytes, want 32 (two to a cache line)", got)
	}
}

func TestLedgerColumnOnlyWithAdmission(t *testing.T) {
	const members = 10000
	spec := PredictedSpec{TokenRate: 1, BucketBits: 1000, Delay: 0.1}
	for _, admit := range []bool{false, true} {
		n := memberChain(Config{Seed: 1, AdmissionControl: admit})
		var a *Aggregate
		for i := 0; i < members; i++ {
			m, err := n.RequestPredictedMember([]string{"S1", "S2"}, 0, spec)
			if err != nil {
				t.Fatalf("admission %v: member %d refused: %v", admit, i, err)
			}
			if i%3 == 2 {
				m.Release() // leave recycled slots in the mix
			}
			a = m.agg
		}
		switch {
		case !admit && a.ledgers != nil:
			t.Fatalf("admission off: %d members carry a %d-entry ledger column", a.Members(), len(a.ledgers))
		case admit && len(a.ledgers) != len(a.members):
			t.Fatalf("admission on: ledger column has %d entries for %d slots", len(a.ledgers), len(a.members))
		}
	}
}

func TestMemberCycleAllocatesNothing(t *testing.T) {
	n := memberChain(Config{Seed: 1})
	path := []string{"S1", "S2", "S3"}
	spec := PredictedSpec{TokenRate: 100, BucketBits: 1000, Delay: 0.1}
	handles := make([]Member, 1000)
	for i := range handles {
		m, err := n.RequestPredictedMember(path, uint8(i%2), spec)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = m
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		h := &handles[i%len(handles)]
		h.Release()
		m, err := n.RequestPredictedMember(path, uint8(i%2), spec)
		if err != nil {
			t.Fatal(err)
		}
		*h = m
		i++
	})
	if allocs != 0 {
		t.Fatalf("release + re-admit at full occupancy allocates %v times, want 0", allocs)
	}
}

func TestInternPathProbeAllocatesNothing(t *testing.T) {
	n := memberChain(Config{Seed: 1})
	known, fresh := []string{"S1", "S2", "S3"}, []string{"S2", "S3"}
	id := n.InternPath(known)
	if allocs := testing.AllocsPerRun(100, func() {
		if got := n.InternPath(known); got != id {
			t.Fatalf("known path re-interned as %d, was %d", got, id)
		}
	}); allocs != 0 {
		t.Fatalf("probing a known path allocates %v times, want 0", allocs)
	}
	before := len(n.intern.paths)
	id2 := n.InternPath(fresh)
	if id2 == id || len(n.intern.paths) != before+1 || n.InternPath(fresh) != id2 || len(n.intern.paths) != before+1 {
		t.Fatalf("new path interned as %d next to %d, table grew %d -> %d; want one new entry",
			id2, id, before, len(n.intern.paths))
	}
	fresh[0] = "S1" // the table keeps its own copy of the key and the hops
	if n.InternPath([]string{"S2", "S3"}) != id2 || n.InternPath(known) != id {
		t.Fatal("interned ids moved after the caller reused its slice")
	}
}

// TestStaleMemberHandleReleasesNewOccupant pins what a handle used after
// Release does: nothing while its slot is free, and once the slot is claimed
// again it acts on the new member — handles die at Release and there is no
// generation counter to tell them apart.
func TestStaleMemberHandleReleasesNewOccupant(t *testing.T) {
	n := memberChain(Config{Seed: 1})
	path := []string{"S1", "S2"}
	spec := PredictedSpec{TokenRate: 1e4, BucketBits: 1e4, Delay: 0.1}
	request := func() Member {
		m, err := n.RequestPredictedMember(path, 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	keep, stale := request(), request()
	stale.Release()
	stale.Release() // slot still free: a no-op
	if got := keep.Flow().DeclaredRate(); got != 1e4 {
		t.Fatalf("double release moved the carrier to %v bits/s, want 1e4", got)
	}
	next := request() // LIFO reuse: takes the slot stale points at
	if next != stale {
		t.Fatalf("new member got slot %d, want the freed slot %d", next.idx, stale.idx)
	}
	stale.Release()
	if next.Rate() != 0 || keep.agg.Members() != 1 || keep.Flow().DeclaredRate() != 1e4 {
		t.Fatalf("stale release left rate %v, %d members, carrier %v bits/s; want the new occupant gone",
			next.Rate(), keep.agg.Members(), keep.Flow().DeclaredRate())
	}
}
