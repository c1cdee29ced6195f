// Package stats provides the integer histogram the experiments and the
// metrics layer share: Figure 7's bucket-occupancy distribution, and the
// quantiles a latency histogram's snapshot reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts occurrences of integer values.
type Histogram struct {
	counts map[int]int64
	n      int64
	sum    int64
	sumSq  float64
	min    int
	max    int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int64)}
}

// Add records one observation of v.
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of v.
func (h *Histogram) AddN(v int, n int64) {
	if n <= 0 {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.counts[v] += n
	h.n += n
	h.sum += int64(v) * n
	h.sumSq += float64(v) * float64(v) * float64(n)
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// Count returns the number of observations of exactly v.
func (h *Histogram) Count(v int) int64 { return h.counts[v] }

// CountAbove returns the number of observations strictly greater than v.
func (h *Histogram) CountAbove(v int) int64 {
	var c int64
	for val, n := range h.counts {
		if val > v {
			c += n
		}
	}
	return c
}

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// StdDev returns the population standard deviation, or 0 when empty.
func (h *Histogram) StdDev() float64 {
	if h.n == 0 {
		return 0
	}
	m := h.Mean()
	v := h.sumSq/float64(h.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the smallest value v such that at least p (0..1)
// of the observations are <= v.
func (h *Histogram) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.n)))
	if target < 1 {
		target = 1
	}
	vals := h.sortedValues()
	var cum int64
	for _, v := range vals {
		cum += h.counts[v]
		if cum >= target {
			return v
		}
	}
	return h.max
}

// Quantiles returns Percentile(p) for each p in ps, sharing one sorted
// pass over the values — the export path the metrics layer uses to
// report latency quantiles from one consistent view of the histogram.
func (h *Histogram) Quantiles(ps ...float64) []int {
	out := make([]int, len(ps))
	if h.n == 0 || len(ps) == 0 {
		return out
	}
	vals := h.sortedValues()
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		target := int64(math.Ceil(p * float64(h.n)))
		if target < 1 {
			target = 1
		}
		var cum int64
		out[i] = h.max
		for _, v := range vals {
			cum += h.counts[v]
			if cum >= target {
				out[i] = v
				break
			}
		}
	}
	return out
}

func (h *Histogram) sortedValues() []int {
	vals := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return vals
}

// Bin aggregates observations into fixed-width bins of the given width
// starting at lo; it returns the bin lower edges and counts, covering
// [lo, max]. Used to render Figure 7.
func (h *Histogram) Bin(lo, width int) (edges []int, counts []int64) {
	if width <= 0 || h.n == 0 {
		return nil, nil
	}
	nbins := (h.max-lo)/width + 1
	if nbins < 1 {
		nbins = 1
	}
	counts = make([]int64, nbins)
	edges = make([]int, nbins)
	for i := range edges {
		edges[i] = lo + i*width
	}
	for v, n := range h.counts {
		b := (v - lo) / width
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b] += n
	}
	return edges, counts
}

// Render draws a textual bar chart of the binned histogram, one line
// per bin, with bars scaled to barWidth characters.
func (h *Histogram) Render(lo, binWidth, barWidth int) string {
	edges, counts := h.Bin(lo, binWidth)
	if len(edges) == 0 {
		return "(empty)\n"
	}
	var peak int64 = 1
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, e := range edges {
		bar := int(counts[i] * int64(barWidth) / peak)
		fmt.Fprintf(&b, "%6d-%-6d |%-*s %d\n", e, e+binWidth-1, barWidth, strings.Repeat("#", bar), counts[i])
	}
	return b.String()
}
