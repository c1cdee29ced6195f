package caram

import (
	"fmt"
	"sync/atomic"

	"caram/internal/match"
)

// Stats accumulates slice activity. AMAL — the average number of
// memory accesses per lookup, the paper's main performance metric — is
// derived from Lookups and RowsAccessed.
type Stats struct {
	Lookups      uint64
	RowsAccessed uint64
	Hits         uint64
	Misses       uint64
	Erred        uint64 // lookups that skipped an unavailable row (ECC)
}

// AMAL returns the average number of memory accesses per lookup, or 0
// when no lookups have been recorded.
func (s Stats) AMAL() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.RowsAccessed) / float64(s.Lookups)
}

// HitRate returns the fraction of lookups that found a record.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// sliceStats is the internal atomic form of Stats: lock-free readers
// (caram.Reader) record their lookups concurrently with the
// port-locked write side, so every counter is an atomic cell. A
// snapshot is monotone, not instantaneous.
type sliceStats struct {
	lookups      atomic.Uint64
	rowsAccessed atomic.Uint64
	hits         atomic.Uint64
	misses       atomic.Uint64
	erred        atomic.Uint64
}

// Stats returns a snapshot of the slice's activity counters.
func (s *Slice) Stats() Stats {
	return Stats{
		Lookups:      s.stats.lookups.Load(),
		RowsAccessed: s.stats.rowsAccessed.Load(),
		Hits:         s.stats.hits.Load(),
		Misses:       s.stats.misses.Load(),
		Erred:        s.stats.erred.Load(),
	}
}

// ResetStats zeroes activity counters on the slice and its array
// (placement bookkeeping — load factor, spill counts — is preserved,
// since it describes the stored database, not activity).
func (s *Slice) ResetStats() {
	s.stats.lookups.Store(0)
	s.stats.rowsAccessed.Store(0)
	s.stats.hits.Store(0)
	s.stats.misses.Store(0)
	s.stats.erred.Store(0)
	s.array.ResetStats()
}

// PlacementSummary describes how the stored database landed in the
// hash table — the quantities of Tables 2 and 3.
type PlacementSummary struct {
	Records            int     // records stored
	Capacity           int     // M*S
	LoadFactor         float64 // α
	OverflowingBuckets int     // home buckets that spilled at least one record
	OverflowingPct     float64 // as % of all buckets
	SpilledRecords     int     // records placed outside their home bucket
	SpilledPct         float64 // as % of all records
	MaxReach           int     // worst displacement recorded in any aux field
}

// Placement computes the placement summary for the current contents.
func (s *Slice) Placement() PlacementSummary {
	p := PlacementSummary{
		Records:    s.count,
		Capacity:   s.cfg.Capacity(),
		LoadFactor: s.LoadFactor(),
	}
	for b, n := range s.spill {
		if n > 0 {
			p.OverflowingBuckets++
			p.SpilledRecords += int(n)
		}
		if r := s.Reach(uint32(b)); r > p.MaxReach {
			p.MaxReach = r
		}
	}
	if rows := s.rows; rows > 0 {
		p.OverflowingPct = 100 * float64(p.OverflowingBuckets) / float64(rows)
	}
	if s.count > 0 {
		p.SpilledPct = 100 * float64(p.SpilledRecords) / float64(s.count)
	}
	return p
}

// ExpectedRows returns the §3.4 analytic expectation of rows accessed
// by a lookup of a uniformly random stored copy under the current
// placement: the mean over copies (a duplicated record once per copy)
// of 1 + displacement from its home, the model that charges a record
// displaced by d exactly 1+d accesses. It is the analytic counterpart —
// evaluated at the slice's current contents and load factor — of the
// measured per-request row count a trace records, so EXPLAIN can print
// model vs. measured side by side. An empty slice reports 1 (a lookup
// always reads the home bucket).
func (s *Slice) ExpectedRows() float64 {
	if s.count == 0 {
		return 1
	}
	return float64(s.count+s.disp) / float64(s.count)
}

// HomeLoads returns, for each bucket, the number of records that hash
// to it (before any spilling) — the distribution Figure 7 plots. The
// returned slice is a copy.
func (s *Slice) HomeLoads() []int32 {
	out := make([]int32, len(s.homeLoad))
	copy(out, s.homeLoad)
	return out
}

// Verify checks the slice's internal invariants and returns a
// description of the first violation, or "" if all hold:
//
//  0. Every in-service row's occupancy mark is exactly 1 + its highest
//     valid slot (checked first: the scans below stop at the mark), and
//     — unless rows are taken whole — every word between the words the
//     mark covers and the aux words is zero: a Reader's snapshot never
//     copies them.
//  1. Count equals the number of valid slots.
//  2. homeLoad sums to Count, and no bucket's spill count is negative
//     or above its home load.
//  3. Every copy lies within the recorded reach of one of its key's
//     homes, so a lookup from that home finds it.
func (s *Slice) Verify() string {
	for b := range s.mark {
		// A quarantined row's mark is rebuilt when a scrub republishes it.
		if s.Quarantined(uint32(b)) {
			continue
		}
		row := s.array.PeekRow(uint32(b))
		got := int(s.mark[b].Load())
		if want := s.layout.UsedSlots(row); got != want {
			return fmt.Sprintf("bucket %d: occupancy mark %d, highest valid slot implies %d", b, got, want)
		}
		for w := s.markWords(got); w < s.auxWord && !s.wholeRows(); w++ {
			if row[w] != 0 {
				return fmt.Sprintf("bucket %d: word %d above mark %d's span holds %#x", b, w, got, row[w])
			}
		}
	}
	valid := 0
	violation := ""
	var homes []uint32
	s.Records(func(bucket uint32, slot int, rec match.Record) bool {
		valid++
		homes = s.homes(homes[:0], rec.Key)
		for _, h := range homes {
			if s.distance(h, bucket) <= s.Reach(h) {
				return true
			}
		}
		violation = fmt.Sprintf("record at bucket %d slot %d: displacement %d exceeds home %d reach %d",
			bucket, slot, s.distance(homes[0], bucket), homes[0], s.Reach(homes[0]))
		return false
	})
	if violation != "" {
		return violation
	}
	if valid != s.count {
		return fmt.Sprintf("count %d but %d valid slots", s.count, valid)
	}
	sum := int32(0)
	for b, l := range s.homeLoad {
		if n := s.spill[b]; n < 0 || n > l {
			return fmt.Sprintf("bucket %d: %d spilled of %d homed", b, n, l)
		}
		sum += l
	}
	if int(sum) != s.count {
		return fmt.Sprintf("homeLoad sums to %d, count is %d", sum, s.count)
	}
	return ""
}
