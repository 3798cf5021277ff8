package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"ispn/internal/packet"
	"ispn/internal/sched"
)

// admissionOpsDigest is what TestAdmissionOperationsPinned folds against the
// admission code as it stood before predicted renegotiation was removed, which
// in turn reproduced the commit that still wrote the §9 admission loop once
// per operation (seven loops) bit for bit; the one transaction in admit.go
// must keep reproducing it.
const admissionOpsDigest = "726d105782e119a1e80fd5198ee6a8d24f79fd93023560f1064df468abac6096"

// TestAdmissionOperationsPinned drives seeded service operations of every
// kind — the three requests, aggregated members admitted and released,
// guaranteed renegotiations up and down, releases, and reroutes after link
// failures — over a small mesh with tight, uneven quotas, so refusals land at
// every hop index and rollbacks have earlier hops to undo. The clock advances
// between operations so warm-up ledger entries expire. After each operation
// it folds the operation, its error text, and every port's reservation and ν̂
// into one sha256. Ledger token values are not folded: they are an
// implementation detail the transaction is free to renumber.
//
// Mutation check: dropping the rollback inside the transaction (the release
// of the earlier hops' entries on a refusal) changes the digest.
func TestAdmissionOperationsPinned(t *testing.T) {
	h := sha256.New()
	for _, admit := range []bool{true, false} {
		admissionOperations(t, h, admit)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != admissionOpsDigest {
		t.Fatalf("admission operations digest %s, pinned %s", got, admissionOpsDigest)
	}
}

func admissionOperations(t *testing.T, h hash.Hash, admit bool) {
	const steps = 6000
	n := New(Config{Seed: 25, AdmissionControl: admit})
	nodes := []string{"S0", "S1", "S2", "S3", "S4"}
	for _, s := range nodes {
		n.AddSwitch(s)
	}
	// A ring with two chords, both directions; rates and profiles differ
	// per link so the tightest hop of a path sits at any index.
	rates := []float64{1e6, 6e5, 4e5, 8e5, 3e5}
	fifo := sched.Profile{Kind: sched.KindFIFO}
	oneClass := sched.Profile{ClassTargets: []float64{0.05}}
	wideQuota := sched.Profile{DatagramQuota: 0.3}
	adj := make(map[string][]string)
	var links [][2]string
	link := func(a, b string) {
		for _, pr := range [][2]string{{a, b}, {b, a}} {
			var prof *sched.Profile
			switch len(links) % 7 {
			case 3:
				prof = &fifo
			case 5:
				prof = &oneClass
			case 6:
				prof = &wideQuota
			}
			if _, err := n.ConnectWith(pr[0], pr[1], rates[len(links)%len(rates)], 0, prof); err != nil {
				t.Fatal(err)
			}
			adj[pr[0]] = append(adj[pr[0]], pr[1])
			links = append(links, pr)
		}
	}
	for i := range nodes {
		link(nodes[i], nodes[(i+1)%len(nodes)])
	}
	link("S0", "S2")
	link("S1", "S3")

	r := rand.New(rand.NewSource(1992))
	// walk is a random loop-free path of one to four links.
	walk := func() []string {
		p := []string{nodes[r.Intn(len(nodes))]}
		for hops := 1 + r.Intn(4); len(p) <= hops; {
			var next []string
			for _, to := range adj[p[len(p)-1]] {
				seen := false
				for _, s := range p {
					seen = seen || s == to
				}
				if !seen {
					next = append(next, to)
				}
			}
			if len(next) == 0 {
				break
			}
			p = append(p, next[r.Intn(len(next))])
		}
		return p
	}
	// Members share a few paths, so aggregates fill, empty and come back.
	memberPaths := make([][]string, 6)
	for i := range memberPaths {
		memberPaths[i] = walk()
	}
	predicted := func() PredictedSpec {
		return PredictedSpec{
			TokenRate:  float64(1+r.Intn(30)) * 1e4,
			BucketBits: float64(1+r.Intn(40)) * 1e3,
			Delay:      []float64{0.05, 0.2, 1, 5}[r.Intn(4)],
			Loss:       0.01,
		}
	}
	// pick returns a random live flow of the given class (Datagram: any
	// class) that the caller owns — carriers belong to their members.
	pick := func(class packet.Class, carriers bool) *Flow {
		var fs []*Flow
		for _, f := range n.Flows() {
			if (class == packet.Datagram || f.Class == class) && (carriers || f.ID < carrierIDBase) {
				fs = append(fs, f)
			}
		}
		if len(fs) == 0 {
			return nil
		}
		return fs[r.Intn(len(fs))]
	}

	var members []Member
	down := make(map[[2]string]bool)
	id := uint32(0)
	var num [8]byte
	fold := func(v float64) {
		binary.LittleEndian.PutUint64(num[:], math.Float64bits(v))
		h.Write(num[:])
	}
	for step := 0; step < steps; step++ {
		if r.Intn(4) != 0 {
			n.Run(r.Float64() * 0.5)
		}
		var op string
		var err error
		switch k := r.Intn(100); {
		case k < 14:
			id++
			p := walk()
			spec := GuaranteedSpec{ClockRate: float64(1+r.Intn(30)) * 1e4, BucketBits: 5e4}
			op = fmt.Sprintf("guaranteed %d %v %v", id, p, spec)
			_, err = n.RequestGuaranteed(id, p, spec)
		case k < 26:
			id++
			p, spec := walk(), predicted()
			op = fmt.Sprintf("predicted %d %v %v", id, p, spec)
			_, err = n.RequestPredicted(id, p, spec)
		case k < 38:
			id++
			p, class, spec := walk(), uint8(r.Intn(3)), predicted()
			op = fmt.Sprintf("predicted-class %d %v %d %v", id, p, class, spec)
			_, err = n.RequestPredictedClass(id, p, class, spec)
		case k < 52:
			p, class, spec := memberPaths[r.Intn(len(memberPaths))], uint8(r.Intn(2)), predicted()
			op = fmt.Sprintf("member %v %d %v", p, class, spec)
			var m Member
			if m, err = n.RequestPredictedMember(p, class, spec); err == nil {
				members = append(members, m)
			}
		case k < 60:
			if len(members) == 0 {
				continue
			}
			i := r.Intn(len(members))
			op = fmt.Sprintf("member-release %d", i)
			members[i].Release()
			members = append(members[:i], members[i+1:]...)
		case k < 68:
			f := pick(packet.Guaranteed, false)
			if f == nil {
				continue
			}
			spec := f.GuaranteedSpec()
			spec.ClockRate *= 0.4 + 1.4*r.Float64()
			op = fmt.Sprintf("renegotiate-guaranteed %d %v", f.ID, spec)
			err = n.RenegotiateGuaranteed(f.ID, spec)
		case k < 88:
			f := pick(packet.Datagram, false)
			if f == nil {
				continue
			}
			op = fmt.Sprintf("release %d", f.ID)
			n.Release(f.ID)
		case k < 94:
			l := links[r.Intn(len(links))]
			op = fmt.Sprintf("fail %v", l)
			if err = n.FailLink(l[0], l[1]); err == nil {
				down[l] = true
			}
			pt, _ := n.port(l[0], l[1])
			for _, f := range n.Flows() {
				for _, fp := range n.portsOf(f) {
					if fp == pt {
						_, rerr := n.rerouteFlow(f, n.newChooser())
						op += fmt.Sprintf(" reroute %d: %v", f.ID, rerr)
						break
					}
				}
			}
		default:
			if f := pick(packet.Datagram, true); f != nil && r.Intn(2) == 0 {
				op = fmt.Sprintf("reroute %d", f.ID)
				_, err = n.rerouteFlow(f, n.newChooser())
				break
			}
			l := links[r.Intn(len(links))]
			if !down[l] {
				continue
			}
			op = fmt.Sprintf("restore %v", l)
			err = n.RestoreLink(l[0], l[1])
			delete(down, l)
		}
		fmt.Fprintf(h, "%d %s: %v|", step, op, err)
		now := n.Engine().Now()
		for _, pt := range n.Topology().Ports() {
			fold(pt.Pipeline().Reserved())
			nu := -1.0
			if c := n.admit[pt.Index()]; c != nil {
				nu = c.Utilization(now)
			}
			fold(nu)
		}
	}
}
