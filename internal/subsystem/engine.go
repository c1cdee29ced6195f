// Package subsystem assembles CA-RAM slices into the memory subsystem
// of Figure 5: search engines (slice groups) serving separate
// databases, the request/result-queue port interface of §3.2, and a
// cycle-level bandwidth simulation that validates the §3.4 formula
// B = Nslice/nmem * fclk. §4.3's parallel overflow CAM is not part of
// a served engine: the internal/exp ablation builds it beside a bare
// slice.
package subsystem

import (
	"errors"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/trace"
)

// Engine is one database search engine: a (possibly banked) CA-RAM
// slice, its one match pipeline.
type Engine struct {
	Name string
	Main *caram.Slice
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
	FailedInsert int
}

// SearchResult is the engine's answer to one search.
type SearchResult struct {
	Found    bool
	Record   match.Record
	RowsRead int
	Erred    bool // a probed row was unavailable (ECC quarantine/read error)
	Home     uint32
}

// Insert places a record in the main array. On a ternary engine with
// a duplication selector the record is instead placed once per
// wildcard home bucket (all copies or none).
func (e *Engine) Insert(rec match.Record, st *EngineStats) error {
	if e.Sel != nil {
		return e.insertDuplicated(rec, st)
	}
	err := e.Main.Insert(rec)
	if st != nil {
		if err == nil {
			st.Inserted++
		} else {
			st.FailedInsert++
		}
	}
	return err
}

// insertDuplicated places one copy of the record in every home bucket
// its wildcard hash bits reach (hash.TernaryIndices). The slice runs
// with AllowDuplicates (a copy spilled from one home may sit on
// another home's probe chain), so whole-record duplicate rejection
// happens here: TernaryIndices always includes Index(key.Value), the
// bucket Contains scans, making the pre-check exact. Placement is
// all-or-nothing, in ascending home order (Delete's, and a reload's) —
// if any copy finds no slot or meets a row it cannot read, the
// already-placed copies are rolled back and the insert fails.
func (e *Engine) insertDuplicated(rec match.Record, st *EngineStats) error {
	if e.Main.Contains(rec.Key) {
		if st != nil {
			st.FailedInsert++
		}
		return caram.ErrExists
	}
	e.homes = e.Sel.AppendTernaryIndices(e.homes[:0], rec.Key)
	for i, home := range e.homes {
		if _, err := e.Main.Place(home, rec); err != nil {
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
// a ternary engine with a selector, the single copy otherwise.
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

// Search looks the key up in the main array.
func (e *Engine) Search(key bitutil.Ternary) SearchResult {
	return e.SearchTraced(key, nil)
}

// SearchTraced is Search recording the main array's probe chain (via
// the caram layer) into a request-scoped trace. A nil trace is the
// untraced hot path; Search delegates here.
func (e *Engine) SearchTraced(key bitutil.Ternary, tr *trace.Trace) SearchResult {
	var main caram.LookupResult
	if e.Score != nil {
		main = e.Main.LookupBestTraced(key, e.Score, tr)
	} else {
		main = e.Main.LookupTraced(key, tr)
	}
	var res SearchResult
	fromLookup(&res, &main)
	return res
}

// SearchSeq runs one lookup on the caller's lock-free Reader instead
// of the engine's port lock. ok=false means the Reader could not
// certify the answer (torn past its retry budget, quarantined row, or
// check-word mismatch) and the caller must fall back to the locked
// SearchTraced; the partial result is meaningless then. A certified
// result never carries Erred — anything a locked search would flag
// erred escalates here instead.
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

// fromLookup fills sr from the main array's lookup, field by field: a
// SearchResult built aside and copied in stalls the copy's loads on the
// fields' just-issued stores.
func fromLookup(sr *SearchResult, main *caram.LookupResult) {
	sr.Found, sr.Record, sr.RowsRead = main.Found, main.Record, main.RowsRead
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
