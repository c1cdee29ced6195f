package metrics

import (
	"math/bits"
	"strconv"
	"sync/atomic"

	"caram/internal/stats"
)

// Latency histogram geometry: bucket i spans [2^(minShift+i-1),
// 2^(minShift+i)) nanoseconds (bucket 0 starts at zero), so 26 buckets
// cover 128 ns .. ~4.3 s with power-of-two resolution; anything slower
// lands in the last bucket. Bounded and fixed up front so Observe is a
// shift, a bits.Len and one atomic add — no locks, no allocation.
const (
	histMinShift = 7  // first bucket: < 128 ns
	histBuckets  = 26 // last edge: 128ns << 25 ≈ 4.29 s
)

// Histogram is a bounded, race-safe latency histogram: fixed
// exponential bucket edges, one atomic counter per bucket, plus a
// running sum so mean latency and Prometheus's `_sum` come for free.
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sumNs  atomic.Int64
}

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns) >> histMinShift)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketEdgeNs returns bucket i's inclusive upper edge in nanoseconds
// (the value the bucket reports for quantile purposes). The last
// bucket is unbounded and reports its lower edge ×2 like the others —
// callers treating it as "at least this slow" is the bounded-histogram
// trade-off.
func BucketEdgeNs(i int) int64 {
	return int64(1)<<(histMinShift+uint(i)) - 1
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(1)
	h.sumNs.Add(ns)
}

// ObserveN records n observations of the same duration with two atomic
// adds — the batched-measurement path: a caller that timed a whole
// batch once attributes the per-item share to each item without paying
// n clock reads or n histogram updates.
func (h *Histogram) ObserveN(ns int64, n uint64) {
	if n == 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)].Add(n)
	h.sumNs.Add(ns * int64(n))
}

// N returns the number of observations.
func (h *Histogram) N() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HistSnapshot is an atomic-load copy of a histogram: per-bucket counts
// against fixed upper edges, plus the running sum.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	SumNs  int64
	N      uint64
}

// Snapshot copies the counters. Loads are per-bucket atomic, so the
// copy is monotone (never ahead of the live histogram's future state)
// though not a single instant.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.SumNs = h.sumNs.Load()
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.N += c
	}
	return s
}

// Stats re-expresses the bucketed counts as a stats.Histogram (each
// bucket contributes its upper edge as the value), reusing the
// experiment toolkit's quantile machinery for export.
func (s HistSnapshot) Stats() *stats.Histogram {
	h := stats.NewHistogram()
	for i, c := range s.Counts {
		if c > 0 {
			h.AddN(int(BucketEdgeNs(i)), int64(c))
		}
	}
	return h
}

// Quantiles returns the upper-edge latency in nanoseconds at each
// quantile p (0..1). The answer overestimates the true quantile by at
// most one power of two — the histogram's resolution contract.
func (s HistSnapshot) Quantiles(ps ...float64) []int64 {
	qs := s.Stats().Quantiles(ps...)
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = int64(q)
	}
	return out
}

// MeanNs returns the mean observed latency in nanoseconds.
func (s HistSnapshot) MeanNs() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.SumNs) / float64(s.N)
}

// AppendQuantiles appends the snapshot as the tail of a METRICS ...
// LATENCY reply — mean and the p50/p90/p99/max upper edges in
// microseconds — the one rendering a server's histogram and a router's
// bucket-wise fleet sum share.
func (s HistSnapshot) AppendQuantiles(dst []byte) []byte {
	dst = append(dst, " mean_us="...)
	dst = strconv.AppendFloat(dst, s.MeanNs()/1e3, 'f', 2, 64)
	qs := s.Quantiles(0.5, 0.9, 0.99, 1)
	for i, label := range [...]string{" p50_us=", " p90_us=", " p99_us=", " max_us="} {
		dst = append(dst, label...)
		dst = strconv.AppendFloat(dst, float64(qs[i])/1e3, 'f', 2, 64)
	}
	return dst
}

// AppendBuckets appends the snapshot as the tail of a METRICS ... HIST
// reply: the raw power-of-two bucket counts, the machine-readable form
// that merges (shards share the bucket edges by construction).
func (s HistSnapshot) AppendBuckets(dst []byte) []byte {
	dst = append(dst, " sum_ns="...)
	dst = strconv.AppendInt(dst, s.SumNs, 10)
	dst = append(dst, " buckets="...)
	for i, c := range s.Counts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, c, 10)
	}
	return dst
}

// sizeBuckets is the bucket count of a SizeHistogram: bucket i counts
// sizes in (2^(i-1), 2^i] (bucket 0 counts 1), the last every size past
// 2^(sizeBuckets-2).
const sizeBuckets = 17

// SizeHistogram is a bounded, race-safe histogram of sizes — requests
// per router write burst, records per WAL write — on power-of-two
// buckets, with the running count and sum. The zero value is ready to
// use.
type SizeHistogram struct {
	counts [sizeBuckets]atomic.Uint64
	n, sum atomic.Uint64
}

// Observe records one size; sizes below 1 are not observations.
func (h *SizeHistogram) Observe(size int) {
	if size <= 0 {
		return
	}
	h.counts[min(bits.Len(uint(size-1)), sizeBuckets-1)].Add(1)
	h.n.Add(1)
	h.sum.Add(uint64(size))
}

// SizeSnapshot is an atomic-load copy of a SizeHistogram.
type SizeSnapshot struct {
	Counts [sizeBuckets]uint64
	N, Sum uint64
}

// Snapshot copies the counters.
func (h *SizeHistogram) Snapshot() SizeSnapshot {
	s := SizeSnapshot{N: h.n.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
