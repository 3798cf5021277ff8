// Maprange fixture: flagged iterations, the sanctioned order-independent
// idioms, and the allow escape hatch.
package core

import (
	"slices"
	"sort"
)

func plainRange(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over map m iterates in nondeterministic order"
		if v > 0 {
			total += v
		}
	}
	return total
}

func floatReduce(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "range over map m iterates in nondeterministic order"
		sum += v
	}
	return sum
}

func callInFill(m map[string]int, f func(int) int) map[string]int {
	out := map[string]int{}
	for k, v := range m { // want "range over map m iterates in nondeterministic order"
		out[k] = f(v)
	}
	return out
}

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectThenSlicesSort(m map[string]int) ([]string, []int) {
	var keys []string
	var vals []int
	for k, v := range m {
		keys = append(keys, k)
		vals = append(vals, v)
	}
	slices.Sort(keys)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return keys, vals
}

// The collected slice must be sorted before anything else reads it.
func collectUnsorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // want "range over map m collects keys in nondeterministic order and does not sort it"
		keys = append(keys, k)
	}
	return keys
}

func collectReadBeforeSort(m map[string]int) string {
	var keys []string
	for k := range m { // want "collects keys in nondeterministic order"
		keys = append(keys, k)
	}
	first := keys[0]
	sort.Strings(keys)
	return first
}

func collectOneSorted(m map[string]int) ([]string, []int) {
	var keys []string
	var vals []int
	for k, v := range m { // want "collects vals in nondeterministic order"
		keys = append(keys, k)
		vals = append(vals, v)
	}
	sort.Strings(keys)
	return keys, vals
}

// slices.Contains is not a sort.
func collectNotSorted(m map[string]int) bool {
	var keys []string
	for k := range m { // want "collects keys in nondeterministic order"
		keys = append(keys, k)
	}
	return slices.Contains(keys, "a")
}

func collectInCase(m map[string]int, c bool) []string {
	switch {
	case c:
		var keys []string
		for k := range m { // want "collects keys in nondeterministic order"
			keys = append(keys, k)
		}
		return keys
	}
	return nil
}

// Deleting every key is order-independent too, but clear(m) says it in one
// call, so the loop form is not an idiom the analyzer recognizes.
func clearAll(m map[string]int) {
	for k := range m { // want "range over map m iterates in nondeterministic order"
		delete(m, k)
	}
}

func keyedFill(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

func intReduce(m map[string]int64) int64 {
	var total int64
	n := 0
	for _, v := range m {
		total += v
		n++
	}
	return total + int64(n)
}

func emptyBody(m map[string]int) {
	for range m {
	}
}

func notAMap(s []int) int {
	total := 0
	for _, v := range s {
		total *= v
	}
	return total
}

func allowed(m map[string]uint64) uint64 {
	var h uint64
	//ispnvet:allow maprange: xor is commutative, so the digest is identical under any iteration order
	for _, v := range m {
		h ^= v
	}
	return h
}
