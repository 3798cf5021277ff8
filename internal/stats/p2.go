package stats

import "sort"

// P2Quantile estimates a single quantile online with O(1) memory using the
// P² algorithm (Jain & Chlamtac, 1985). It is used where recording every
// sample would be wasteful, e.g. adaptive playback clients estimating the
// delay percentile that sets their play-back point.
type P2Quantile struct {
	p       float64
	n       int
	q       [5]float64 // marker heights
	pos     [5]int     // marker positions (1-based)
	desired [5]float64 // desired marker positions
	inc     [5]float64 // desired position increments
	initial []float64
}

// NewP2Quantile returns an estimator for the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("stats: P2Quantile requires 0 < p < 1")
	}
	return &P2Quantile{
		p:       p,
		desired: [5]float64{1, 1 + float64(2*p), 1 + float64(4*p), 3 + float64(2*p), 5},
		inc:     [5]float64{0, p / 2, p, (1 + p) / 2, 1},
		initial: make([]float64, 0, 5),
	}
}

// Count returns the number of samples observed.
func (e *P2Quantile) Count() int { return e.n }

// Add records one sample.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if len(e.initial) < 5 {
		e.initial = append(e.initial, x)
		if len(e.initial) == 5 {
			sort.Float64s(e.initial)
			copy(e.q[:], e.initial)
			e.pos = [5]int{1, 2, 3, 4, 5}
		}
		return
	}

	// Find the cell k containing x and adjust extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.desired[i] += e.inc[i]
	}

	// Adjust interior markers if they drifted from their desired spots.
	for i := 1; i <= 3; i++ {
		d := e.desired[i] - float64(e.pos[i])
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

func (e *P2Quantile) parabolic(i, s int) float64 {
	qi, qim, qip := e.q[i], e.q[i-1], e.q[i+1]
	ni, nim, nip := float64(e.pos[i]), float64(e.pos[i-1]), float64(e.pos[i+1])
	fs := float64(s)
	return qi + float64(fs/(nip-nim)*((ni-nim+fs)*(qip-qi)/(nip-ni)+(nip-ni-fs)*(qi-qim)/(ni-nim)))
}

func (e *P2Quantile) linear(i, s int) float64 {
	return e.q[i] + float64(s)*(e.q[i+s]-e.q[i])/(float64(e.pos[i+s])-float64(e.pos[i]))
}

// Value returns the current quantile estimate. With fewer than 5 samples it
// returns the exact quantile of what has been seen (0 with no samples).
func (e *P2Quantile) Value() float64 {
	if len(e.initial) < 5 {
		if len(e.initial) == 0 {
			return 0
		}
		tmp := append([]float64(nil), e.initial...)
		sort.Float64s(tmp)
		idx := int(e.p * float64(len(tmp)))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		return tmp[idx]
	}
	return e.q[2]
}
