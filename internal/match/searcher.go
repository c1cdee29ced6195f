package match

import (
	"math/bits"

	"caram/internal/bitutil"
)

// Searcher is a private comparator bank for one concurrent reader: the
// same compiled slot comparator a Processor runs, minus every piece of
// shared mutable state. A Processor's match vector and statistics
// counters make it single-owner; the lock-free search path
// (caram.Reader) instead gives each reader goroutine its own Searcher,
// the software analogue of §3.3's observation that match logic is
// stateless combinational hardware — replicating a comparator bank
// costs area, never coherence.
//
// A Searcher keeps no statistics (the caram layer's atomic counters
// account for lock-free lookups) and owns only its matcher's short-row
// scratch, so distinct Searchers over one layout never share a written
// word. It is still single-owner: one goroutine per Searcher — except
// that the scratch is written only for a row shorter than the layout's
// image, so callers that pass whole rows and bring their own Result may
// share one (caram.Slice.Contains does, under the engine's read lock).
type Searcher struct {
	layout Layout
	m      *matcher
}

// NewSearcher compiles a comparator bank over the layout. p <= 0 means
// one match processor per slot, as in NewProcessor.
func NewSearcher(layout Layout, p int) *Searcher {
	return &Searcher{layout: layout, m: newMatcher(layout, p)}
}

// Layout returns the record layout the searcher decodes.
func (sr *Searcher) Layout() Layout { return sr.layout }

// SearchInto runs the match pipeline over one row, writing the match
// vector into res.Vector's backing array (grown only when too small).
// All other Result fields are overwritten. Identical results to
// Processor.Search; the row is typically a seqlock snapshot owned by
// the same reader.
func (sr *Searcher) SearchInto(res *Result, row []uint64, search bitutil.Ternary) {
	sr.m.search(res, row, search, len(sr.m.slots))
}

// SearchPrefixInto is SearchInto over slots [0, n) only — for a row
// snapshot that holds just the words covering those slots, every slot
// from n up being empty (see Processor.SearchPrefix).
func (sr *Searcher) SearchPrefixInto(res *Result, row []uint64, search bitutil.Ternary, n int) {
	sr.m.search(res, row, search, n)
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
