// Package subsystem assembles CA-RAM slices into the memory subsystem
// of Figure 5: search engines (slice groups) serving separate
// databases, an optional small CAM/TCAM overflow area searched in
// parallel with the main array (§4.3), the request/result-queue port
// interface of §3.2, and a cycle-level bandwidth simulation that
// validates the §3.4 formula B = Nslice/nmem * fclk.
package subsystem

import (
	"errors"
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/cam"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/trace"
)

// Engine is one database search engine: a (possibly banked) CA-RAM
// plus an optional overflow CAM. The main slice should be configured
// with caram.NoProbing when an overflow area is attached — spilled
// records live in the CAM and every lookup costs exactly one row
// access, the design point §4.3 analyzes.
type Engine struct {
	Name     string
	Main     *caram.Slice
	Overflow *cam.Device // optional; searched in parallel with Main
	// Banks is the number of independently-accessible vertical banks
	// the slice is split into for bandwidth (Figure 8 splits design D
	// into eight). Purely a timing property; 0 means 1.
	Banks int
	// Score ranks multi-matches (e.g. prefix length for LPM); nil
	// means first-match-wins exact search.
	Score func(match.Record) int
	// Type is the engine's workload shape (NewTypedEngine); the
	// zero value is ExactEngine, so hand-built engines need no change.
	Type EngineType
	// Sel, when non-nil, is the bit-selection index generator of a
	// ternary engine: inserts duplicate each record across
	// Sel.TernaryIndices(key) (one copy per wildcard hash-bit combo,
	// §4's ternary duplication) and deletes remove every copy.
	Sel *hash.BitSelect
	// AppliedLSN is the journal LSN of the last mutation applied to
	// this engine (written under the engine's write lock, captured in
	// snapshots). Replay skips records with lsn <= AppliedLSN: they
	// are already reflected in the recovered image. Zero when no
	// journal is attached.
	AppliedLSN uint64

	// homes is the scratch a ternary write lists its home buckets in,
	// reused under the engine's write lock.
	homes []uint32
}

// EngineStats tracks engine-level placement.
type EngineStats struct {
	Inserted     int
	ToOverflow   int
	FailedInsert int
}

// stats is updated by Insert.
var errNoCapacity = errors.New("subsystem: record fits neither main array nor overflow")

// SearchResult is the engine's answer to one search.
type SearchResult struct {
	Found    bool
	Record   match.Record
	RowsRead int  // main-array rows; the parallel overflow adds none
	FromOvfl bool // the winning record came from the overflow area
	Erred    bool // a probed row was unavailable (ECC quarantine/read error)
	Home     uint32
}

// Insert places a record, diverting it to the overflow area when the
// main array rejects it. On a ternary engine with a duplication
// selector the record is instead placed once per wildcard home bucket
// (all copies or none).
func (e *Engine) Insert(rec match.Record, st *EngineStats) error {
	if e.Sel != nil {
		return e.insertDuplicated(rec, st)
	}
	err := e.Main.Insert(rec)
	if err == nil {
		if st != nil {
			st.Inserted++
		}
		return nil
	}
	if !errors.Is(err, caram.ErrFull) || e.Overflow == nil {
		if st != nil {
			st.FailedInsert++
		}
		return err
	}
	prio := 0
	if e.Score != nil {
		prio = e.Score(rec)
	}
	if err := e.Overflow.Insert(rec, prio); err != nil {
		if st != nil {
			st.FailedInsert++
		}
		return fmt.Errorf("%w: %v", errNoCapacity, err)
	}
	if st != nil {
		st.Inserted++
		st.ToOverflow++
	}
	return nil
}

// insertDuplicated places one copy of the record in every home bucket
// its wildcard hash bits reach (hash.TernaryIndices). The slice runs
// with AllowDuplicates (a copy spilled from one home may sit on
// another home's probe chain), so whole-record duplicate rejection
// happens here: TernaryIndices always includes Index(key.Value), the
// bucket Contains scans, making the pre-check exact. Placement is
// all-or-nothing — if any copy finds no slot, the already-placed
// copies are rolled back and the insert fails.
func (e *Engine) insertDuplicated(rec match.Record, st *EngineStats) error {
	if e.Main.Contains(rec.Key) {
		if st != nil {
			st.FailedInsert++
		}
		return caram.ErrExists
	}
	e.homes = e.Sel.AppendTernaryIndices(e.homes[:0], rec.Key)
	for i, home := range e.homes {
		if err := e.Main.InsertAt(home, rec); err != nil {
			for _, h := range e.homes[:i] {
				e.Main.DeleteAt(h, rec.Key) //nolint:errcheck // just placed there
			}
			if st != nil {
				st.FailedInsert++
			}
			return err
		}
	}
	if st != nil {
		st.Inserted++
	}
	return nil
}

// Delete removes the exact (value, mask) key: every duplicated copy on
// a ternary engine with a selector, the single copy otherwise. The
// overflow CAM is not consulted — typed engines carry none, and the
// exact engine's overflow path deletes through Main as before.
func (e *Engine) Delete(key bitutil.Ternary) error {
	if e.Sel == nil {
		return e.Main.Delete(key)
	}
	found := false
	e.homes = e.Sel.AppendTernaryIndices(e.homes[:0], key)
	for _, home := range e.homes {
		switch err := e.Main.DeleteAt(home, key); {
		case err == nil:
			found = true
		case !errors.Is(err, caram.ErrNotFound):
			return err
		}
	}
	if !found {
		return caram.ErrNotFound
	}
	return nil
}

// Touch is the touch stage of a chunk of writes to this engine — at
// most caram.BatchChunk journal entries, inserts and deletes — run
// before they apply: it computes each write's home row and fetches them
// back to back (caram.Slice.Touch), so the chunk's row misses overlap
// instead of queueing one behind each write. It changes nothing. The
// caller holds the engine's write lock, or owns the engine outright, as
// replay does.
func (e *Engine) Touch(ents []JournalEntry) {
	var homes [caram.BatchChunk]uint32
	n := min(len(ents), len(homes))
	for i := range homes[:n] {
		key := &ents[i].Key
		if ents[i].Op == JournalInsert {
			key = &ents[i].Rec.Key
		}
		homes[i] = e.Main.Index(key.Value)
	}
	e.Main.Touch(homes[:n])
}

// Search looks the key up in the main array and, simultaneously, the
// overflow area. With an overflow area attached the row cost is the
// main lookup's only (AMAL = 1 under NoProbing), since the CAM search
// proceeds in parallel.
func (e *Engine) Search(key bitutil.Ternary) SearchResult {
	return e.SearchTraced(key, nil)
}

// SearchTraced is Search recording into a request-scoped trace: the
// main array's probe chain (via the caram layer) plus one event for
// the parallel overflow-CAM search when an overflow area is attached.
// A nil trace is the untraced hot path; Search delegates here.
func (e *Engine) SearchTraced(key bitutil.Ternary, tr *trace.Trace) SearchResult {
	var main caram.LookupResult
	if e.Score != nil {
		main = e.Main.LookupBestTraced(key, e.Score, tr)
	} else {
		main = e.Main.LookupTraced(key, tr)
	}
	var res SearchResult
	fromLookup(&res, &main)
	if e.Overflow == nil {
		return res
	}
	ovfl := e.Overflow.Search(key)
	tr.Overflow(ovfl.Found)
	if !ovfl.Found {
		return res
	}
	switch {
	case !res.Found:
		res.Found, res.Record, res.FromOvfl = true, ovfl.Record, true
	case e.Score != nil && e.Score(ovfl.Record) > e.Score(res.Record):
		res.Record, res.FromOvfl = ovfl.Record, true
	}
	return res
}

// SearchSeq runs one lookup on the caller's lock-free Reader instead
// of the engine's port lock. It serves engines without an overflow CAM
// only (the Concurrent layer gates on that): the CAM has its own
// mutable priority state, so overflow-equipped engines stay on the
// serialized path. ok=false means the Reader could not certify the
// answer (torn past its retry budget, quarantined row, or check-word
// mismatch) and the caller must fall back to the locked SearchTraced;
// the partial result is meaningless then. A certified result never
// carries Erred — anything a locked search would flag erred escalates
// here instead.
func (e *Engine) SearchSeq(rd *caram.Reader, key bitutil.Ternary, tr *trace.Trace) (SearchResult, bool) {
	var main caram.LookupResult
	var ok bool
	if e.Score != nil {
		main, ok = rd.LookupBest(key, e.Score, tr)
	} else {
		main, ok = rd.Lookup(key, tr)
	}
	if !ok {
		return SearchResult{}, false
	}
	var res SearchResult
	fromLookup(&res, &main)
	return res, true
}

// fromLookup fills sr with the main array's share of a search, field by
// field: a SearchResult built aside and copied in stalls the copy's loads
// on the fields' just-issued stores.
func fromLookup(sr *SearchResult, main *caram.LookupResult) {
	sr.Found, sr.Record, sr.RowsRead, sr.FromOvfl = main.Found, main.Record, main.RowsRead, false
	sr.Erred, sr.Home = main.Erred, main.HomeBucket
}

// banks resolves the timing bank count.
func (e *Engine) banks() int {
	if e.Banks <= 0 {
		return 1
	}
	return e.Banks
}

// bankOf maps a home bucket to its bank: contiguous row partitions, so
// short probe chains stay within one bank.
func (e *Engine) bankOf(home uint32) int {
	rows := e.Main.Array().Rows()
	b := int(home) * e.banks() / rows
	if b >= e.banks() {
		b = e.banks() - 1
	}
	return b
}
