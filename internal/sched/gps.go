package sched

import (
	"math"
	"sort"
)

// This file implements an exact fluid Generalized Processor Sharing
// simulation, used as a reference oracle in tests: Parekh and Gallager prove
// that packetized WFQ finishes each packet no later than fluid GPS plus one
// maximum packet time. The fluid model is the one in the paper's Section 4:
// backlogged flows drain in proportion to their clock rates,
//
//	∂m_α/∂t = µ · r_α / Σ_{β∈A(t)} r_β.
//
// (The paper normalizes by Σ r over active flows only, i.e. the server is
// work conserving and redistributes idle flows' shares.)

// GPSArrival is one packet arrival in a fluid GPS trace.
type GPSArrival struct {
	Time float64
	Flow uint32
	Size float64 // bits
}

// GPSSimulate runs fluid GPS over the arrival trace on a server of the given
// rate with per-flow clock rates, and returns for each arrival (in input
// order) the time its last bit finishes service.
func GPSSimulate(mu float64, rates map[uint32]float64, arrivals []GPSArrival) []float64 {
	idx := make([]int, len(arrivals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return arrivals[idx[a]].Time < arrivals[idx[b]].Time })

	type flowState struct {
		rate    float64
		backlog float64
		served  float64   // cumulative bits served
		bounds  []float64 // cumulative-size packet boundaries not yet departed
		orig    []int     // original arrival indices matching bounds
		arrived float64   // cumulative bits arrived
	}
	flows := map[uint32]*flowState{}
	for id, r := range rates {
		flows[id] = &flowState{rate: r}
	}
	ids := make([]uint32, 0, len(flows))
	for id := range flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })

	departures := make([]float64, len(arrivals))

	activeRate := func() float64 {
		s := 0.0
		for _, id := range ids {
			if flows[id].backlog > 1e-12 {
				s += flows[id].rate
			}
		}
		return s
	}

	// advance drains fluid from t to t+dt assuming the active set is
	// constant over the interval (caller guarantees this), recording
	// packet departures as service crosses packet boundaries.
	advance := func(t, dt float64) {
		ar := activeRate()
		if ar == 0 {
			return
		}
		for _, id := range ids {
			f := flows[id]
			if f.backlog <= 1e-12 {
				continue
			}
			rate := mu * f.rate / ar
			amount := rate * dt
			if amount > f.backlog {
				amount = f.backlog
			}
			startServed := f.served
			f.served += amount
			f.backlog -= amount
			if f.backlog < 1e-12 {
				f.backlog = 0
			}
			for len(f.bounds) > 0 && f.bounds[0] <= f.served+1e-9 {
				// Last bit of this packet departs when service
				// reaches its boundary.
				frac := (f.bounds[0] - startServed) / amount
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
				departures[f.orig[0]] = t + float64(dt*frac)
				f.bounds = f.bounds[1:]
				f.orig = f.orig[1:]
			}
		}
	}

	// nextEmpty returns the earliest time > t at which some backlogged
	// flow empties, assuming the active set stays fixed.
	nextEmpty := func() float64 {
		ar := activeRate()
		if ar == 0 {
			return math.Inf(1)
		}
		dt := math.Inf(1)
		for _, id := range ids {
			f := flows[id]
			if f.backlog <= 1e-12 {
				continue
			}
			rate := mu * f.rate / ar
			if d := f.backlog / rate; d < dt {
				dt = d
			}
		}
		return dt
	}

	t := 0.0
	k := 0
	for k < len(idx) || activeRate() > 0 {
		var nextArr float64
		if k < len(idx) {
			nextArr = arrivals[idx[k]].Time
		} else {
			nextArr = math.Inf(1)
		}
		de := nextEmpty()
		if math.IsInf(de, 1) && math.IsInf(nextArr, 1) {
			break
		}
		if t+de < nextArr {
			advance(t, de)
			t += de
			continue
		}
		if nextArr > t {
			advance(t, nextArr-t)
			t = nextArr
		}
		// Apply all arrivals at this instant.
		for k < len(idx) && arrivals[idx[k]].Time <= t {
			a := arrivals[idx[k]]
			f := flows[a.Flow]
			if f == nil {
				panic("sched: GPS arrival for unknown flow")
			}
			f.backlog += a.Size
			f.arrived += a.Size
			f.bounds = append(f.bounds, f.arrived)
			f.orig = append(f.orig, idx[k])
			k++
		}
	}
	return departures
}
