package caram

import (
	"math/bits"
	"sync/atomic"

	"caram/internal/trace"
)

// Per-row error coding. The check word is a SECDED-style pair stored
// beside (not inside) the array, one word per row:
//
//   - bits 0..31: a Hamming-style syndrome — the XOR, over every set
//     bit of the row, of that bit's position code (word*64 + bit + 1;
//     the +1 keeps every code nonzero so a single flip always yields a
//     nonzero syndrome delta);
//   - bit 32: the row's overall parity.
//
// On a checked fetch the row's check word is recomputed and compared.
// A single-bit error changes the parity and leaves the syndrome delta
// equal to the flipped bit's position code, so it is corrected in
// place — written back to storage, the scrub-on-read discipline real
// memory controllers use. A double-bit error preserves parity but
// yields a nonzero syndrome delta: detectable, not correctable, so the
// row is quarantined — lookups skip it and report a distinct
// miss-with-error until a scrub pass restores it.
//
// The shadow is the insert-side logical image: every legitimate write
// (insert, delete, update, reach maintenance, bulk transform) is
// mirrored into it, so a scrub can restore a quarantined row's true
// contents without re-deriving them from the fault history. The shadow
// models the paper's §3.2 observation that the hashed database also
// exists at the host — reconstruction is a memory copy, not a rebuild.
//
// Protection is opt-in (Config.ECC or EnableECC): with it off the
// slice keeps its existing zero-allocation lookup path untouched
// except for the one nil check fetchChecked adds.

// eccState is a slice's error-coding sidecar. check and quar are the
// two cells lock-free Readers consult (atomically; every store to them
// happens on the serialized write side, check words inside their row's
// seqlock window); everything else — shadow, quarBits, the counters —
// is port-locked state the lock-free path never touches. A Reader that
// sees a quarantined flag, or a snapshot whose recomputed check word
// disagrees with the stored one, escalates to the locked path, which
// performs the full detect/correct/quarantine protocol and its
// accounting. That keeps PR 5's never-silently-wrong contract intact:
// no corrupted row is ever *returned* by the lock-free path, and every
// ECC decision is still made exactly once, under the lock.
type eccState struct {
	rowWords int
	check    []uint64      // one check word per row (atomic: readers verify against it)
	shadow   []uint64      // authoritative logical image, rowWords per row
	quar     []atomic.Bool // rows out of service
	quarBits []uint32      // corrupt-bit count recorded at quarantine time
	nQuar    int
	scratch  []uint64 // correction buffer: fixes never mutate storage in place
	st       EccStats
}

// EccStats counts the error-coding layer's activity. The chaos harness
// reconciles these exactly against the injector's ledger:
// CorrectedBits accounts every single-bit event (random singles plus
// stuck-cell assertions), Uncorrectable every double-bit event, and
// ScrubRepairedBits the corrupt bits a scrub restored (two per
// quarantined row in the one-event-per-fetch model). A write never finds
// an injected flip at rest — the fetch that drew it settled it — so its
// repair (restore) adds nothing to that ledger.
type EccStats struct {
	CheckedFetches    uint64 // fetches verified against the check word
	CorrectedBits     uint64 // bits fixed in place: single-bit fetch corrections, write restores
	Uncorrectable     uint64 // quarantine events (double-bit detections)
	ReadErrors        uint64 // transient row-read failures observed
	QuarantineSkips   uint64 // probes that skipped an out-of-service row
	ScrubRuns         uint64
	ScrubRepairedRows uint64 // rows a scrub restored from the shadow
	ScrubRepairedBits uint64 // corrupt bits restored (recorded at quarantine)
	ScrubReleased     uint64 // quarantined rows returned to service
}

// checkWord computes the row's syndrome|parity pair. It reads the row
// with atomic loads, so a Reader may check a live row inside its seqlock
// window.
func checkWord(row []uint64) uint64 {
	var syn uint32
	pop := 0
	for w := range row {
		v := atomic.LoadUint64(&row[w])
		pop += bits.OnesCount64(v)
		for v != 0 {
			b := bits.TrailingZeros64(v)
			syn ^= uint32(w<<6 + b + 1)
			v &= v - 1
		}
	}
	return uint64(syn) | uint64(pop&1)<<32
}

// EnableECC turns per-row error coding on, building the check words
// and the insert-side shadow from the array's current contents. It is
// the post-load entry point too: LoadImageFrom calls it again on an
// ECC-enabled slice, so bulk-constructed databases (§3.2) are
// protected from their current state onward. Enabling is idempotent;
// re-enabling rebuilds and clears any quarantine.
func (s *Slice) EnableECC() {
	rows := s.rows
	rw := s.array.Words() / rows
	e := s.ecc
	if e == nil {
		e = &eccState{
			rowWords: rw,
			check:    make([]uint64, rows),
			shadow:   make([]uint64, rw*rows),
			quar:     make([]atomic.Bool, rows),
			quarBits: make([]uint32, rows),
			scratch:  make([]uint64, rw),
		}
		s.ecc = e
	}
	for i := 0; i < rows; i++ {
		row := s.array.PeekRow(uint32(i))
		copy(e.shadow[i*rw:(i+1)*rw], row)
		atomic.StoreUint64(&e.check[i], checkWord(row))
		e.quar[i].Store(false)
		e.quarBits[i] = 0
	}
	e.nQuar = 0
}

// EccStats returns the error-coding counters (zero value when ECC is
// off).
func (s *Slice) EccStats() EccStats {
	if s.ecc == nil {
		return EccStats{}
	}
	return s.ecc.st
}

// QuarantinedRows returns how many rows are out of service.
func (s *Slice) QuarantinedRows() int {
	if s.ecc == nil {
		return 0
	}
	return s.ecc.nQuar
}

// Quarantined reports whether one row is out of service.
func (s *Slice) Quarantined(idx uint32) bool {
	return s.ecc != nil && s.ecc.quar[idx].Load()
}

// shadowRow returns the mutable shadow image of a row.
func (e *eccState) shadowRow(idx uint32) []uint64 {
	off := int(idx) * e.rowWords
	return e.shadow[off : off+e.rowWords]
}

// drift counts the bits in which a row differs from its shadow.
func (e *eccState) drift(idx uint32, row []uint64) int {
	diff, sh := 0, e.shadowRow(idx)
	for w := range row {
		diff += bits.OnesCount64(row[w] ^ sh[w])
	}
	return diff
}

// restore starts a write's scratch — a copy of the stored row — over
// from the shadow when the two differ: the write rebuilds the shadow and
// check word from its scratch, which would make a soft error at rest
// that no checked fetch has settled authoritative. The restored bits
// count as corrected.
func (e *eccState) restore(idx uint32, scratch []uint64) {
	if diff := e.drift(idx, scratch); diff > 0 {
		copy(scratch, e.shadowRow(idx))
		e.st.CorrectedBits += uint64(diff)
	}
}

// logicalRow returns a row's logical contents for maintenance scans:
// the authoritative shadow when the row is quarantined, the stored row
// otherwise. Maintenance (locate, Records) always sees the true
// database even while a row is out of service.
func (s *Slice) logicalRow(idx uint32, stored []uint64) []uint64 {
	if s.ecc != nil && s.ecc.quar[idx].Load() {
		return s.ecc.shadowRow(idx)
	}
	return stored
}

// quarantine takes a row out of service, recording how many stored
// bits differ from the shadow at this moment — the corrupt-bit ledger
// a later scrub settles. (Writes that land in the shadow while the row
// is quarantined widen the raw restore diff without being corruption,
// which is why the count is taken now.)
func (e *eccState) quarantine(idx uint32, row []uint64) {
	if e.quar[idx].Load() {
		return
	}
	e.quar[idx].Store(true)
	e.quarBits[idx] = uint32(e.drift(idx, row))
	e.nQuar++
	e.st.Uncorrectable++
}

// fetchChecked is the slice's one row-fetch path for charged lookups,
// insert probes and bulk scans. With ECC off it is the array fetch plus a nil
// check — the zero-allocation hot path. With ECC on it verifies the
// row against its check word, corrects a single-bit error in place,
// and quarantines an uncorrectable row. ok=false means the row is
// unavailable this access (quarantined, just quarantined, or a
// transient read error that persisted past one retry); the caller
// skips the row and marks the lookup as erred.
func (s *Slice) fetchChecked(idx uint32, tr *trace.Trace) ([]uint64, bool) {
	if s.ecc == nil {
		if s.array.FaultsInstalled() {
			s.keep(idx) // a strike changes the stored row, and nothing else holds the old one
		}
		row, _ := s.array.FetchRow(idx) // unprotected: errors are invisible
		return row, true
	}
	e := s.ecc
	if e.quar[idx].Load() {
		e.st.QuarantineSkips++
		return nil, false
	}
	row, ok := s.array.FetchRow(idx)
	if !ok {
		e.st.ReadErrors++
		row, ok = s.array.FetchRow(idx) // one retry: transient means transient
		if !ok {
			e.st.ReadErrors++
			return nil, false
		}
	}
	e.st.CheckedFetches++
	stored := e.check[idx]
	got := checkWord(row)
	if got == stored {
		return row, true
	}
	delta := got ^ stored
	dSyn := uint32(delta)
	dPar := delta >> 32 & 1
	if dPar == 1 && dSyn != 0 {
		// Odd flip count with a position-code syndrome: a single-bit
		// error at position dSyn-1. Correct on the scratch copy and
		// publish the fix through the row's seqlock window
		// (scrub-on-read) — storage is never mutated with plain stores,
		// so concurrent snapshot readers cannot see a half-fixed row.
		pos := int(dSyn - 1)
		if w := pos >> 6; w < len(row) {
			copy(e.scratch, row)
			e.scratch[w] ^= 1 << uint(pos&63)
			if checkWord(e.scratch) == stored {
				e.st.CorrectedBits++
				tr.Ecc(idx, 1, false)
				s.array.PublishRow(idx, e.scratch)
				return e.scratch, true
			}
		}
	}
	// Even flip count (or an aliased syndrome): detectable but not
	// correctable. Out of service until scrubbed.
	e.quarantine(idx, row)
	tr.Ecc(idx, 0, true)
	return nil, false
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	RepairedRows int // rows whose stored bits were restored from the shadow
	RepairedBits int // raw bit difference restored (includes shadow-side writes)
	Released     int // quarantined rows returned to service
}

// Scrub re-verifies every row against the insert-side shadow and
// restores any divergence: quarantined rows get their true contents
// back (and return to service), and every check word is recomputed.
// It is maintenance — no accesses are charged and no faults injected —
// and it is the episode boundary for the health state machine above:
// after a scrub the slice is exactly its logical contents again.
// Restores publish through each row's seqlock window (check word
// refreshed inside the window, quarantine released only after the
// restored row is published), so lock-free readers running concurrently
// with a scrub see every row either pre- or post-restore, never mid-
// copy. No-op (zero report) with ECC off.
func (s *Slice) Scrub() ScrubReport {
	var rep ScrubReport
	if s.ecc == nil {
		return rep
	}
	e := s.ecc
	e.st.ScrubRuns++
	rows := s.rows
	for i := 0; i < rows; i++ {
		idx := uint32(i)
		live := s.array.PeekRow(idx)
		if diff := e.drift(idx, live); diff > 0 {
			row := s.array.BeginRowMaint(idx)
			copy(row, e.shadowRow(idx))
			atomic.StoreUint64(&e.check[idx], checkWord(row))
			s.mark[idx].Store(uint32(s.layout.UsedSlots(row)))
			s.array.CommitRowUpdate(idx)
			rep.RepairedRows++
			rep.RepairedBits += diff
		} else {
			atomic.StoreUint64(&e.check[idx], checkWord(live))
		}
		if e.quar[i].Load() {
			e.quar[i].Store(false)
			e.nQuar--
			rep.Released++
			e.st.ScrubRepairedBits += uint64(e.quarBits[i])
			e.quarBits[i] = 0
		}
	}
	e.st.ScrubRepairedRows += uint64(rep.RepairedRows)
	e.st.ScrubReleased += uint64(rep.Released)
	return rep
}

// resetECC clears the sidecar alongside Slice.Clear: empty array,
// empty shadow, zero check words, no quarantine. Counters are kept
// (they describe history, like the slice's activity stats).
func (s *Slice) resetECC() {
	if s.ecc == nil {
		return
	}
	e := s.ecc
	for i := range e.shadow {
		e.shadow[i] = 0
	}
	for i := range e.check {
		atomic.StoreUint64(&e.check[i], 0)
		e.quar[i].Store(false)
		e.quarBits[i] = 0
	}
	e.nQuar = 0
}
