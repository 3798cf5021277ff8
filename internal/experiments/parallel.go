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

// ForEach runs fn(i) for every i in [0, n), fanning the calls across up to
// GOMAXPROCS workers and returning when all have completed. fn must be
// safe to run concurrently with itself for distinct i (independent
// simulations are; they share no engine). One worker, with GOMAXPROCS 1 or
// n == 1, makes the calls in index order.
func ForEach(n int, fn func(int)) {
	w := min(runtime.GOMAXPROCS(0), n)
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
