package sim

import "math/rand"

// math/rand's seeded generator is an additive lagged-Fibonacci register of
// 607 words with a tap 273 back: output n is v[333-n] + v[606-n] (indices
// mod 607), written back over v[333-n]. Seeding fills word i with
// cooked[i] ^ (u(21+3i)<<40 ^ u(22+3i)<<20 ^ u(23+3i)), where
// u(k) = 48271^k * x0 mod (2^31-1) is a Lehmer chain started at the reduced
// seed x0. The first 273 outputs therefore read only freshly seeded words,
// and each of those is a closed form of x0: a draw needs six modular
// multiplies and no register. DESIGN.md "Random streams" has the contract.
const (
	lfLen     = 607
	lfTap     = 273
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271

	// lazyDraws is how many outputs a stream computes statelessly before it
	// seeds a real register. A stateless draw costs about four register
	// draws (10 ns against 2.5), so a stream still drawing after this many
	// has shown it is worth the 12 us and 4.9 KB; it must stay <= lfTap.
	lazyDraws = 64
)

var (
	// lehmerPow[k] = 48271^k mod (2^31-1), for every k a seeded word uses.
	lehmerPow [24 + 3*(lfLen-1)]uint32
	// cooked is math/rand's unexported additive constant table, recovered at
	// init from the seed-1 stream.
	cooked [lfLen]uint64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k < len(lehmerPow); k++ {
		lehmerPow[k] = uint32(uint64(lehmerPow[k-1]) * lehmerMul % lehmerMod)
	}

	// Invert the recurrence over the first 607 outputs of seed 1 to get the
	// register as seeded, v0, then xor off seed 1's own chain words. Output
	// 334+j is the first to read v0[606-j], added to output 61+j; output
	// k < 273 is v0[333-k] + v0[606-k]; and outputs 273..333 add v0[333-k]
	// to output k-273, which by then sits at the tap.
	src := rand.NewSource(1).(rand.Source64)
	var out, v0 [lfLen]uint64
	for n := range out {
		out[n] = src.Uint64()
	}
	for j := 0; j < lfTap; j++ {
		v0[lfLen-1-j] = out[lfLen-lfTap+j] - out[lfLen-2*lfTap+j]
	}
	for k := 0; k < lfLen-lfTap; k++ {
		if k < lfTap {
			v0[lfLen-lfTap-1-k] = out[k] - v0[lfLen-1-k]
		} else {
			v0[lfLen-lfTap-1-k] = out[k] - out[k-lfTap]
		}
	}
	for i := range cooked {
		cooked[i] = v0[i] ^ chainWord(1, i)
	}
}

// chainWord is the seed-dependent part of seeded word i for reduced seed x0.
func chainWord(x0 uint32, i int) uint64 {
	u := func(k int) uint64 { return uint64(lehmerPow[k]) * uint64(x0) % lehmerMod }
	return u(21+3*i)<<40 ^ u(22+3*i)<<20 ^ u(23+3*i)
}

// reduceSeed maps a seed onto the Lehmer chain's start exactly as math/rand
// does: into [1, 2^31-2], with 0 replaced by a fixed constant.
func reduceSeed(seed int64) uint32 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint32(seed)
}

// lazySource is the rand.Source64 behind a new RNG. It produces bit for bit
// the stream of rand.NewSource(seed) while holding only the reduced seed and
// a draw count; on draw lazyDraws it seeds the real register, winds it
// forward, and re-points the owning RNG at it, so a long stream afterwards
// runs math/rand's own code with no extra dispatch.
type lazySource struct {
	owner *RNG
	x0    uint32
	n     int32 // outputs drawn statelessly; lazyDraws+1 once promoted
}

func (s *lazySource) Uint64() uint64 {
	if s.n < lazyDraws {
		i := lfLen - lfTap - 1 - int(s.n)
		s.n++
		return (cooked[i] ^ chainWord(s.x0, i)) + (cooked[i+lfTap] ^ chainWord(s.x0, i+lfTap))
	}
	if s.n == lazyDraws {
		std := rand.NewSource(int64(s.x0))
		for i := 0; i < lazyDraws; i++ {
			std.Int63()
		}
		s.owner.r = rand.New(std)
		s.n++
	}
	// Reached on the promoting draw, and for the rest of a rand.Rand method
	// (Perm, a rejection loop) that was under way when it happened.
	return s.owner.r.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *lazySource) Seed(seed int64) {
	if s.n > lazyDraws {
		s.owner.r.Seed(seed)
		return
	}
	s.x0, s.n = reduceSeed(seed), 0
}
