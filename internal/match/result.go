package match

import "math/bits"

// Result is the outcome of searching one row.
type Result struct {
	// Vector has one bit per slot: 1 = that slot matched. Word 0 bit 0
	// is slot 0. It is the caller's scratch: a search writes the match
	// vector into its backing array (grown only when too small), so it
	// stays valid until the caller's next search into the same Result —
	// a hardware match-vector latch the next operation overwrites.
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
	// SlotsTested is how many valid slots this search compared,
	// surfaced so request-scoped traces can attribute match work to
	// individual bucket probes.
	SlotsTested int
}

// Multi reports the multiple-match condition. (Pointer receivers, here
// and on Matched: a value receiver copies the whole Result per call.)
func (r *Result) Multi() bool { return r.Count > 1 }

// Matched reports whether any slot matched.
func (r *Result) Matched() bool { return r.First >= 0 }

// PriorityEncode reduces a match vector to its lowest set bit index,
// -1 when empty — step 3 in isolation.
func PriorityEncode(vector []uint64) int {
	for w, v := range vector {
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}
