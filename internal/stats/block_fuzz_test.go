package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzRecorderBlock codes a chunk of keys as a block and holds it to
// checkBlock. The input's 8-byte words are cycled, each round of them one
// above the last, to fill the chunk. Without grid each word is a key; with
// it a word w picks a multiple m of the grid 2⁻ᵏ, its top 53 bits shifted
// right by a further w mod 32 so that the multiples span many binades, and
// the key is that of ±(m·2⁻ᵏ − c), a simulated delay's shape.
func FuzzRecorderBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 8*chunkLen)
	rng.Read(random)
	f.Add([]byte{}, false, uint8(0), 0.0, false)
	f.Add(random, false, uint8(0), 0.0, false)
	f.Add(random[:64], false, uint8(0), 0.0, false)
	f.Add(random, true, uint8(43), 0.0001234567, false)
	f.Add(random[:200], true, uint8(20), 1.5, true)
	f.Add(random, true, uint8(60), 0.0, false)
	f.Fuzz(func(t *testing.T, data []byte, grid bool, k uint8, c float64, neg bool) {
		words := make([]uint64, max(len(data)/8, 1))
		for i := range len(data) / 8 {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		keys := make([]uint64, chunkLen)
		for i := range keys {
			w := words[i%len(words)] + uint64(i/len(words))
			if !grid {
				keys[i] = w
				continue
			}
			x := math.Ldexp(float64(w>>(11+w&31)), -int(k)) - c
			if neg {
				x = -x
			}
			if keys[i] = key(x); x != x {
				keys[i] = math.MaxUint64
			}
		}
		checkBlock(t, "fuzz", keys)
	})
}
