package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the worker-pool experiment runner: every experiment that
// runs several independent simulations (Table 2's three disciplines, the
// ablation sweeps, the admission policies, the scheduling-zoo comparison)
// fans them across ForEach instead of looping.
//
// Determinism: each sub-simulation owns its engine and derives every random
// stream from (cfg.Seed, component name) via sim.DeriveRNG, so a simulation's
// result depends only on its inputs — never on which worker ran it or in
// what order. Workers write results into per-index slots, so the assembled
// output is bit-identical to the sequential runner's (asserted by
// TestParallelMatchesSequential).

var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism sets the worker count used by ForEach (values < 1 select
// sequential execution) and returns the previous setting. The default is
// GOMAXPROCS.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(parallelism.Swap(int64(n)))
}

// Parallelism returns the current ForEach worker count.
func Parallelism() int { return int(parallelism.Load()) }

// ForEach runs fn(i) for every i in [0, n), fanning the calls across up to
// Parallelism() workers and returning when all have completed. fn must be
// safe to run concurrently with itself for distinct i (independent
// simulations are; they share no engine). With parallelism 1, or n == 1,
// the calls run inline in index order.
func ForEach(n int, fn func(int)) {
	w := min(Parallelism(), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
