package hash

import (
	"sort"

	"caram/internal/bitutil"
)

// Greedy hash-bit selection, after Zane, Narlikar and Basu (CoolCAMs,
// INFOCOM 2003), as used in §4.1: given a set of (possibly ternary)
// keys and a window of candidate bit positions, choose the R positions
// that spread the keys most evenly across 2^R buckets.
//
// The quality of a candidate set is measured by the sum of squared
// bucket loads, which is proportional to the expected number of
// colliding pairs; a ternary key whose don't-care bits intersect the
// chosen positions counts once in every bucket it must be duplicated
// into, so the metric also penalizes duplication.

// SelectBits greedily picks r bit positions from candidates. Each round
// tries every remaining candidate, scores the resulting distribution
// over the doubled bucket count, and keeps the best. Ties are broken in
// favor of the lowest position to keep the result deterministic. The
// returned positions are sorted ascending.
func SelectBits(keys []bitutil.Ternary, candidates []int, r int) []int {
	if r <= 0 || len(candidates) == 0 {
		return nil
	}
	if r > len(candidates) {
		r = len(candidates)
	}
	chosen := make([]int, 0, r)
	remaining := append([]int(nil), candidates...)
	sort.Ints(remaining)
	for round := 0; round < r; round++ {
		bestIdx, bestCost := -1, int64(-1)
		for i, cand := range remaining {
			trial := append(append([]int(nil), chosen...), cand)
			cost := distributionCost(keys, trial)
			if bestIdx == -1 || cost < bestCost {
				bestIdx, bestCost = i, cost
			}
		}
		chosen = append(chosen, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	sort.Ints(chosen)
	return chosen
}

// distributionCost returns the sum of squared bucket loads for keys
// hashed by bit selection over positions. Don't-care bits in selected
// positions expand the key into every bucket it would be duplicated to.
func distributionCost(keys []bitutil.Ternary, positions []int) int64 {
	gen := BitSelect{Positions: positions}
	loads := make([]int32, 1<<uint(len(positions)))
	for _, k := range keys {
		if gen.DuplicationFactor(k) == 1 {
			loads[gen.Index(k.Value)]++
			continue
		}
		for _, idx := range gen.TernaryIndices(k) {
			loads[idx]++
		}
	}
	var cost int64
	for _, l := range loads {
		cost += int64(l) * int64(l)
	}
	return cost
}
