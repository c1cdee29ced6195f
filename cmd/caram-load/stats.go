package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule); xs need not be sorted and is
// not modified. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileNs is quantile over integer nanosecond samples.
func quantileNs(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, q)
}

// The quiet-rep rule. This is a Firecracker guest and hypervisor steal
// is the dominant noise: throughput falls almost linearly with the
// share of ticks stolen. A repetition is quiet when steal stayed at or
// below quietSteal; a run of timedReps repetitions with fewer than
// keepReps quiet ones appends up to extraReps more; every end-to-end
// number is the median over the keepReps quietest repetitions; a
// workload with fewer than minQuiet quiet ones among those is flagged
// noisy, and a comparison must call it unresolved. Selection looks only
// at the host signal, never at the measured outcome.
const (
	quietSteal = 0.02
	timedReps  = 8
	extraReps  = 3
	keepReps   = 5
	minQuiet   = 3
)

// Steal comes in storms that last seconds. After a repetition that was
// not quiet, the run idles in settleWindow steps until one step sees no
// more than quietSteal, spending at most settleBudget per run — again a
// decision made from the host signal alone.
const (
	settleWindow = 200 * time.Millisecond
	settleBudget = 6 * time.Second
)

// settle waits for a quiet settleWindow, for at most budget, and
// returns how long it waited.
func settle(budget time.Duration) time.Duration {
	var waited time.Duration
	for waited+settleWindow <= budget {
		h0 := readHostCPU()
		time.Sleep(settleWindow)
		waited += settleWindow
		if readHostCPU().stealShareSince(h0) <= quietSteal {
			break
		}
	}
	return waited
}

// pickQuiet returns the indices of the keep quietest repetitions (ties
// go to the earlier one, so the choice is a function of the steal
// readings alone), how many of them were quiet, and whether the
// workload is noisy.
func pickQuiet(steal []float64, keep int) (kept []int, quiet int, noisy bool) {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	if keep > len(idx) {
		keep = len(idx)
	}
	kept = idx[:keep]
	for _, i := range kept {
		if steal[i] <= quietSteal {
			quiet++
		}
	}
	sort.Ints(kept)
	return kept, quiet, quiet < minQuiet
}
