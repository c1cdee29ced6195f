package match

import (
	"math/bits"

	"caram/internal/bitutil"
)

// Processor models the bank of P match processors attached to a CA-RAM
// slice. A search runs the four steps of §3.3 over one fetched row:
//
//  1. expand the search key across the row (overlapped with the memory
//     access, so it contributes no latency),
//  2. calculate the match vector — every slot compared in parallel with
//     the Figure 4(b) comparator (both don't-care directions),
//  3. decode the match vector with a priority encoder, detecting the
//     no-match and multi-match conditions,
//  4. extract the matched slot's data.
//
// When the row holds more slots than there are match processors
// (S > P), matching is divided into ceil(S/P) pipelined passes, as the
// paper describes for flexible key sizes.
//
// Steps 2–4 run on the compiled slot comparator (see matcher): each
// slot's fields are read out of the fetched row at positions fixed when
// the layout was compiled, and the match vector lands in
// processor-owned scratch — the hot path performs zero allocations per
// search. The legacy slot-at-a-time pipeline survives only as the
// tests' behavioral oracle.
//
// A Processor is not safe for concurrent use: the scratch match vector
// and the statistics counters are per-processor mutable state (the
// hardware analogue: one comparator bank per slice port).
type Processor struct {
	layout Layout
	p      int // number of match processor instances
	stats  ProcessorStats
	m      *matcher
	vec    []uint64 // scratch match vector handed out via Result.Vector
}

// ProcessorStats counts the work a processor bank has performed.
type ProcessorStats struct {
	Searches    uint64 // rows searched
	SlotsTested uint64 // slot comparisons performed
	Passes      uint64 // pipelined match passes (ceil(S/P) per search)
	Matches     uint64 // slots that matched
}

// NewProcessor builds a bank of p match processors over the given
// layout. p <= 0 means "one per slot" (P = S, the desirable case of
// §3.1).
func NewProcessor(layout Layout, p int) *Processor {
	if p <= 0 {
		p = layout.Slots()
	}
	return &Processor{
		layout: layout,
		p:      p,
		m:      newMatcher(layout, p),
		vec:    make([]uint64, (layout.Slots()+63)/64),
	}
}

// Layout returns the record layout the processor decodes.
func (pr *Processor) Layout() Layout { return pr.layout }

// P returns the number of match processor instances.
func (pr *Processor) P() int { return pr.p }

// Result is the outcome of searching one row.
type Result struct {
	// Vector has one bit per slot: 1 = that slot matched. Word 0 bit 0
	// is slot 0.
	//
	// Aliasing: when produced by Search, Vector is scratch owned by the
	// processor — it stays valid only until the processor's next
	// Search/SearchPrefix call, exactly like a hardware match-vector
	// latch that the next operation overwrites. Callers that retain a
	// Result across searches must Clone it first. Searcher.SearchInto
	// writes into caller-provided scratch instead.
	Vector []uint64
	// First is the priority-encoded match (lowest slot index), -1 if
	// none. Insertion order therefore defines match priority, which is
	// how the applications realize LPM inside a bucket.
	First int
	// Count is the number of matching slots; Count > 1 is the
	// multi-match condition step 3 must flag.
	Count int
	// Record is the extracted record at First (zero when First < 0).
	Record Record
	// Passes is how many pipelined passes this search needed.
	Passes int
	// SlotsTested is how many valid slots this search compared — the
	// per-row share of the processor's cumulative SlotsTested stat,
	// surfaced so request-scoped traces can attribute match work to
	// individual bucket probes.
	SlotsTested int
}

// Multi reports the multiple-match condition. (Pointer receivers, here
// and on Matched: a value receiver copies the whole Result per call.)
func (r *Result) Multi() bool { return r.Count > 1 }

// Matched reports whether any slot matched.
func (r *Result) Matched() bool { return r.First >= 0 }

// Clone returns a copy of the result whose Vector no longer aliases
// processor scratch, safe to retain across searches.
func (r Result) Clone() Result {
	r.Vector = append([]uint64(nil), r.Vector...)
	return r
}

// Search runs the match pipeline for a (possibly masked) search key
// over one row. The search key's mask implements search-key bit
// masking; stored masks implement ternary search — both may be active
// at once.
//
// The returned Result's Vector aliases processor-owned scratch (see
// Result.Vector); the call itself allocates nothing.
func (pr *Processor) Search(row []uint64, search bitutil.Ternary) Result {
	return pr.SearchPrefix(row, search, len(pr.m.slots))
}

// SearchPrefix is Search over slots [0, n) only, for a caller that
// knows every slot from n up is empty: the result is Search's, at the
// cost of n comparators, and row words beyond slot n-1 are not read.
func (pr *Processor) SearchPrefix(row []uint64, search bitutil.Ternary, n int) Result {
	var res Result
	pr.SearchPrefixInto(&res, row, search, n)
	return res
}

// SearchPrefixInto is SearchPrefix filling the caller's res in place —
// the form a per-row loop uses, since a returned Result is a whole-struct
// copy. Every field is overwritten; Vector aliases the processor's
// scratch, as Search's does.
func (pr *Processor) SearchPrefixInto(res *Result, row []uint64, search bitutil.Ternary, n int) {
	res.Vector = pr.vec
	pr.m.search(res, row, search, n)
	pr.stats.Searches++
	pr.stats.Passes += uint64(res.Passes)
	pr.stats.SlotsTested += uint64(res.SlotsTested)
	pr.stats.Matches += uint64(res.Count)
}

// SearchAll returns every matching record in slot order — the "massive
// data evaluation" capability the decoupled match logic enables (§1).
// It returns nil when nothing matches.
func (pr *Processor) SearchAll(row []uint64, search bitutil.Ternary) []Record {
	return pr.SearchAllAppend(nil, row, search)
}

// SearchAllAppend appends every matching record in slot order to dst
// and returns the extended slice — the allocation-free variant of
// SearchAll for callers that reuse a record buffer across rows.
func (pr *Processor) SearchAllAppend(dst []Record, row []uint64, search bitutil.Ternary) []Record {
	res := pr.Search(row, search)
	if res.Count == 0 {
		return dst
	}
	for i := 0; i < pr.layout.Slots(); i++ {
		if res.Vector[i/64]>>uint(i%64)&1 == 1 {
			rec, _ := pr.layout.ReadSlot(row, i)
			dst = append(dst, rec)
		}
	}
	return dst
}

// Best returns the matching record that maximizes the supplied score
// (ties broken toward the lower slot), or ok=false if nothing matched.
// This generalizes the priority encoder for applications, like LPM,
// where priority is a property of the record rather than its position.
// It allocates nothing.
func (pr *Processor) Best(row []uint64, search bitutil.Ternary, score func(Record) int) (rec Record, ok bool) {
	res := pr.Search(row, search)
	if res.Count == 0 {
		return Record{}, false
	}
	best, bestScore := Record{}, 0
	for i := 0; i < pr.layout.Slots(); i++ {
		if res.Vector[i/64]>>uint(i%64)&1 == 0 {
			continue
		}
		r, _ := pr.layout.ReadSlot(row, i)
		if sc := score(r); !ok || sc > bestScore {
			best, bestScore, ok = r, sc, true
		}
	}
	return best, ok
}

// PriorityEncode reduces a match vector to its lowest set bit index,
// -1 when empty — step 3 in isolation, exposed for tests and for the
// CAM baseline to share.
func PriorityEncode(vector []uint64) int {
	for w, v := range vector {
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// Stats returns a snapshot of the processor's activity counters.
func (pr *Processor) Stats() ProcessorStats { return pr.stats }

// ResetStats zeroes the activity counters.
func (pr *Processor) ResetStats() { pr.stats = ProcessorStats{} }
