package match

import (
	"math/bits"

	"caram/internal/bitutil"
)

// Searcher is the bank of P match processors attached to one CA-RAM
// slice port. A search runs the four steps of §3.3 over one fetched
// row:
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
// Steps 2–4 run on the compiled slot comparator (see matcher), and the
// match vector lands in the caller's Result: a search allocates nothing
// once that scratch exists. The slot-at-a-time pipeline survives only as
// the tests' behavioral oracle.
//
// Like §3.3's bank, a Searcher is stateless: it keeps no statistics and
// owns only its matcher's scratch for rows shorter than the layout's
// image, so replicating one costs memory, never coherence — each
// lock-free reader (caram.Reader) has its own. It is single-owner,
// except that callers that pass whole rows and bring their own Result
// may share one (caram.Slice.Contains does, under the engine's read
// lock).
type Searcher struct {
	layout Layout
	m      *matcher
}

// NewSearcher compiles a bank of p match processors over the layout.
// p <= 0 means one per slot (P = S, the desirable case of §3.1).
func NewSearcher(layout Layout, p int) *Searcher {
	return &Searcher{layout: layout, m: newMatcher(layout, p)}
}

// Layout returns the record layout the searcher decodes.
func (sr *Searcher) Layout() Layout { return sr.layout }

// SearchInto runs the match pipeline for a (possibly masked) search key
// over one row, writing the match vector into res.Vector's backing array
// (grown only when too small). All other Result fields are overwritten.
// The search key's mask implements search-key bit masking; stored masks
// implement ternary search — both may be active at once.
func (sr *Searcher) SearchInto(res *Result, row []uint64, search bitutil.Ternary) {
	sr.m.search(res, row, search, len(sr.m.slots))
}

// SearchPrefixInto is SearchInto over slots [0, n) only, for a caller
// that knows every slot from n up is empty: the result is SearchInto's,
// at the cost of n comparators, and row words beyond slot n-1 are not
// read. Every word is read with an atomic load, so the row may be live
// storage a writer publishes into, for a caller that validates the
// row's version afterwards (caram.Reader).
func (sr *Searcher) SearchPrefixInto(res *Result, row []uint64, search bitutil.Ternary, n int) {
	sr.m.search(res, row, search, n)
}

// AppendAll appends every record of one row that matches the search key
// to dst, in slot order, and returns the extended slice — the "massive
// data evaluation" capability the decoupled match logic enables (§1).
// res is the caller's scratch and is left as SearchInto(res, row,
// search) leaves it.
func (sr *Searcher) AppendAll(dst []Record, res *Result, row []uint64, search bitutil.Ternary) []Record {
	sr.m.search(res, row, search, len(sr.m.slots))
	for w, v := range res.Vector {
		for ; v != 0; v &= v - 1 {
			rec, _ := sr.layout.ReadSlot(row, w*64+bits.TrailingZeros64(v))
			dst = append(dst, rec)
		}
	}
	return dst
}

// Locate is the maintenance scan of slots [0, n) of one row: the lowest
// slot whose stored key equals key exactly — value and mask,
// bitutil.Ternary.Equal, not match semantics — or -1. It finds its
// target with the comparators rather than beside them: a stored key
// equal to key also matches it, so the equal slots are among the hits of
// a search for key, and each hit, in ascending order, is held to the
// exact test — which a masked key on a binary layout fails, as does a
// stored mask that merely covers the difference. res is the caller's
// scratch and is left as SearchPrefixInto(res, row, key, n) leaves it:
// res.SlotsTested is how many of the n slots hold a record.
func (sr *Searcher) Locate(res *Result, row []uint64, key bitutil.Ternary, n int) int {
	sr.m.search(res, row, key, n)
	if res.First < 0 || res.Record.Key.Equal(key) {
		return res.First // step 4 already extracted the first hit's key
	}
	for w, v := range res.Vector {
		for ; v != 0; v &= v - 1 {
			i := w*64 + bits.TrailingZeros64(v)
			if i == res.First {
				continue
			}
			if rec, _ := sr.layout.ReadSlot(row, i); rec.Key.Equal(key) {
				return i
			}
		}
	}
	return -1
}
