package caram

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"caram/internal/bitutil"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
	"caram/internal/trace"
)

// Slice is one CA-RAM slice (Figure 3). It owns its memory array and
// match processors; higher-level structure (multiple slices, overflow
// areas, request queues) lives in the subsystem package.
//
// Concurrency: all mutation (and the classic Lookup* methods, which
// share the port's match scratch) must be serialized by the caller,
// exactly as the hardware's single row port does. Lock-free lookups
// are available through per-goroutine Readers (NewReader): every write
// path publishes rows through the array's per-row seqlock, so any
// number of Readers may search concurrently with the single
// serialized writer. Construction — including the first EnableECC and
// InstallFaults — must complete before Readers start.
type Slice struct {
	cfg    Config
	layout match.Layout
	array  *mem.Array
	// bank is the row port's one comparator bank (§3.3) and res its match
	// scratch, shared by every port-locked user: probe, locate and the
	// bulk scans.
	bank *match.Searcher
	res  match.Result
	// probeMax is how far from home an insert may place a record: the
	// configured probe limit, capped by what the aux field can record — a
	// displacement beyond it would make the record unreachable.
	probeMax int
	// slotBits is a slot's width, auxWord the first word holding aux bits.
	slotBits, auxWord int
	// rows is cfg.Rows(), kept so the row path never passes the whole
	// Config by value to a value-receiver method (a 112-byte copy per call).
	rows int

	ecc      *eccState              // nil = unprotected memory (see ecc.go); Readers load it per row
	frz      atomic.Pointer[Freeze] // &frozen while a freeze is open (bulk.go)
	count    int                    // records stored
	mark     []atomic.Uint32        // per-row occupancy mark: 1 + highest valid slot (see bound)
	homeLoad []int32                // copies homed at each bucket, wherever they sit: Figure 7's quantity
	spill    []int32                // copies homed at each bucket that sit outside it (Table 2's spills)
	disp     int                    // the stored copies' displacements from their homes, summed
	stats    sliceStats             // Readers add to it per lookup: one cache line, not ecc's
	frozen   Freeze
}

// New builds a slice from a validated configuration.
func New(cfg Config) (*Slice, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout := cfg.layout()
	array, err := mem.New(mem.Config{
		Rows:    cfg.Rows(),
		RowBits: cfg.RowBits,
		Tech:    cfg.Tech,
	})
	if err != nil {
		return nil, err
	}
	s := &Slice{
		cfg:      cfg,
		layout:   layout,
		array:    array,
		bank:     match.NewSearcher(layout, 0),
		probeMax: min(cfg.probeLimit(), int(uint64(1)<<uint(layout.AuxBits)-1)),
		slotBits: layout.SlotBits(),
		auxWord:  (layout.RowBits - layout.AuxBits) / 64,
		rows:     cfg.Rows(),
		mark:     make([]atomic.Uint32, cfg.Rows()),
		homeLoad: make([]int32, cfg.Rows()),
		spill:    make([]int32, cfg.Rows()),
	}
	if cfg.ECC {
		s.EnableECC()
	}
	return s, nil
}

// MustNew is New that panics on error, for static configurations.
func MustNew(cfg Config) *Slice {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the slice configuration.
func (s *Slice) Config() Config { return s.cfg }

// Layout returns the row layout.
func (s *Slice) Layout() match.Layout { return s.layout }

// Array exposes the underlying memory array — the RAM-mode view of
// §3.2 (scratch-pad access, bulk database construction, memory tests).
// Records written through it bypass the slice's bookkeeping — counts,
// home loads, occupancy marks; LoadImageFrom is the RAM-mode bulk load
// that rebuilds them.
func (s *Slice) Array() *mem.Array { return s.array }

// Count returns the number of stored records (duplicated ternary
// records count once per copy, as they each occupy a slot).
func (s *Slice) Count() int { return s.count }

// LoadFactor returns α = N / (M*S).
func (s *Slice) LoadFactor() float64 {
	return float64(s.count) / float64(s.cfg.Capacity())
}

// Index computes the home bucket for a key via the configured index
// generator, reduced modulo the row count when TotalRows is in use.
func (s *Slice) Index(key bitutil.Vec128) uint32 {
	idx := s.cfg.Index.Index(key)
	if rows := uint32(s.rows); idx >= rows {
		idx %= rows
	}
	return idx
}

// homes appends to dst the buckets a key's copies call home, reduced as
// Index reduces: under a bit selection, ascending, every bucket its
// don't-care bits over the selected positions reach (one copy each, §4);
// under any other generator Index(key) alone.
func (s *Slice) homes(dst []uint32, key bitutil.Ternary) []uint32 {
	sel, ok := s.cfg.Index.(*hash.BitSelect)
	if !ok {
		return append(dst, s.Index(key.Value))
	}
	n := len(dst)
	dst = sel.AppendTernaryIndices(dst, key)
	for i := range dst[n:] {
		dst[n+i] %= uint32(s.rows)
	}
	return dst
}

// Insert stores a record in the bucket chosen by the index generator,
// spilling to subsequent buckets by linear probing when the home bucket
// is full (§2.1). The home row's auxiliary field is raised to cover the
// record's displacement so later searches know how far to reach.
func (s *Slice) Insert(rec match.Record) error {
	_, err := s.place(s.Index(rec.Key.Value), rec)
	return err
}

// Place stores a record from an explicit home bucket, which must be one
// of the key's homes (see homes), and reports its displacement from it —
// the per-record quantity behind the AMAL analyses of §4 (a record
// displaced by d costs 1+d accesses to look up). A ternary record whose
// don't-care bits overlap the hash bits (§4) is duplicated with one
// Place per home, in ascending order. Verify reports a copy that lies
// within no home's reach.
func (s *Slice) Place(home uint32, rec match.Record) (displacement int, err error) {
	if int(home) >= s.rows {
		return 0, fmt.Errorf("caram: home bucket %d out of range", home)
	}
	return s.place(home, rec)
}

// place is Place for a home bucket known to be in range. It passes over
// a quarantined row but fails on one it cannot read (ErrUnreadable):
// passing over that could put this copy behind one placed after it.
func (s *Slice) place(home uint32, rec match.Record) (displacement int, err error) {
	// One pass over the home row: the comparator run that rules the
	// duplicate out also counted the row's records, which tells freeSlot
	// below whether there is a hole to look for.
	used := 0
	if !s.cfg.AllowDuplicates {
		var found bool
		if _, _, used, found = s.locate(&s.res, home, rec.Key); found {
			return 0, ErrExists
		}
	}
	rows := s.rows
	for d := 0; d <= s.probeMax && d < rows; d++ {
		idx := uint32((int(home) + d) % rows)
		row, ok := s.fetchChecked(idx, nil)
		if !ok {
			if s.Quarantined(idx) {
				continue // out of service: never place records there
			}
			return 0, ErrUnreadable
		}
		if d > 0 || s.wholeRows() {
			used = 0 // not the row locate counted, or not as it counted it
		}
		slot := s.freeSlot(row, s.bound(idx), used)
		if slot < 0 {
			continue
		}
		if err := s.updateRow(idx, true, func(wrow []uint64) error {
			return s.layout.WriteSlot(wrow, slot, rec)
		}); err != nil {
			return 0, err
		}
		s.book(home, d, 1)
		if d > 0 {
			s.raiseReach(home, uint64(d))
		}
		return d, nil
	}
	return 0, ErrFull
}

// book is the placement bookkeeping's one writer: it counts n copies
// (1 placed, -1 deleted) homed at home and displaced d from it.
func (s *Slice) book(home uint32, d int, n int32) {
	s.count += int(n)
	s.homeLoad[home] += n
	if d > 0 {
		s.spill[home] += n
		s.disp += int(n) * d
	}
}

// Touch is the write path's touch stage, Table 1's pipeline turned on
// writes: the row accesses of a chunk of writes are issued back to back
// before the first of them applies. For each home row it hints what an
// insert or delete reads first — the lines prefetch hints, and the
// row's home-load count — so that the chunk's cache misses overlap and
// the writes that follow, in order, find their rows resident. It
// changes and charges nothing. The caller holds the port lock.
func (s *Slice) Touch(homes []uint32) {
	for _, h := range homes {
		s.prefetch(h)
		mem.Prefetch(unsafe.Pointer(&s.homeLoad[h]))
	}
}

// prefetch issues cache hints for the lines a read of row idx starts
// with: the row's version, first and last (aux) lines, and its mark.
func (s *Slice) prefetch(idx uint32) {
	s.array.Prefetch(idx)
	mem.Prefetch(unsafe.Pointer(&s.mark[idx]))
}

// updateRow is the slice's one write path to a stored row: the array
// copies the live row into writer-owned scratch, fn mutates the
// scratch, and the commit publishes the words that changed atomically
// inside the row's seqlock window — with the ECC shadow mirror and check
// word refreshed, from the whole scratch, inside the same window, so a
// lock-free Reader that validates its snapshot's version always holds a
// fully published row whose check word it can trust. charge selects
// whether the write is priced as a row access (inserts/deletes) or is
// unpriced maintenance (reach metadata). The caller holds the slice's
// port lock. Publishing cannot bless corruption: callers never write to
// quarantined rows (their mutations divert to the shadow), and an ECC
// row that drifted from its shadow at rest is restored first (restore).
//
// The row's occupancy mark moves inside the same window, and
// incrementally: an insert takes the first free slot, which is the mark
// itself at most, so it raises the mark by one or not at all; anything
// else can only have emptied slots, so the mark walks down from where
// it was. (A full rescan per write was measurably slower to load.)
func (s *Slice) updateRow(idx uint32, charge bool, fn func(row []uint64) error) error {
	s.keep(idx)
	var row []uint64
	if charge {
		row = s.array.BeginRowUpdate(idx)
	} else {
		row = s.array.BeginRowMaint(idx)
	}
	if s.ecc != nil {
		s.ecc.restore(idx, row)
	}
	err := fn(row)
	was := int(s.mark[idx].Load())
	m := was
	if m < s.layout.Slots() && s.layout.SlotValid(row, m) {
		m++
	} else {
		for m > 0 && !s.layout.SlotValid(row, m-1) {
			m--
		}
	}
	if m != was {
		s.mark[idx].Store(uint32(m))
	}
	if s.ecc != nil {
		copy(s.ecc.shadowRow(idx), row)
		atomic.StoreUint64(&s.ecc.check[idx], checkWord(row))
	}
	s.array.CommitRowUpdate(idx)
	return err
}

// bound returns how many leading slots of a row can hold a record:
// every slot from there up is empty, so searches, scans and fetches
// stop there. That is the row's occupancy mark, 1 + its highest valid
// slot as of the last published write — except on a slice with ECC or
// a fault injector, where it is the whole row: the check word covers
// every bit, and a strike may set bits above the mark.
func (s *Slice) bound(idx uint32) int {
	if s.wholeRows() {
		return s.layout.Slots()
	}
	return int(s.mark[idx].Load())
}

func (s *Slice) wholeRows() bool { return s.ecc != nil || s.array.FaultsInstalled() }

// markWords returns how many leading words of a row hold its first n
// slots, stopping short of the aux words: the span a bounded match of a
// row whose mark is n reads, the aux words apart. Every word from there
// up to auxWord is zero (Verify holds it).
func (s *Slice) markWords(n int) int { return min(bitutil.RowWords(n*s.slotBits), s.auxWord) }

// rebuildMarks recomputes every occupancy mark from the stored rows,
// after a bulk replacement of the array's contents.
func (s *Slice) rebuildMarks() {
	for i := range s.mark {
		s.mark[i].Store(uint32(s.layout.UsedSlots(s.array.PeekRow(uint32(i)))))
	}
}

// freeSlot returns the first invalid slot, or -1, of a row whose slots
// from n up are empty and of whose first n slots used are known to hold
// records (0: not counted): n records below n leave no hole to walk for.
func (s *Slice) freeSlot(row []uint64, n, used int) int {
	for i := 0; used < n && i < n; i++ {
		if !s.layout.SlotValid(row, i) {
			return i
		}
	}
	if n < s.layout.Slots() {
		return n
	}
	return -1
}

// raiseReach lifts the home bucket's auxiliary reach counter to at
// least d, saturating at the field's capacity.
func (s *Slice) raiseReach(home uint32, d uint64) {
	max := uint64(1)<<uint(s.layout.AuxBits) - 1
	if d > max {
		d = max
	}
	if s.ecc != nil && s.ecc.quar[home].Load() {
		// The home row is out of service: the reach update lands in
		// the authoritative shadow and reaches the array at scrub.
		sh := s.ecc.shadowRow(home)
		if s.layout.ReadAux(sh) < d {
			s.keep(home)
			s.layout.WriteAux(sh, d)
		}
		return
	}
	row := s.array.PeekRow(home) // metadata maintenance, not a charged access
	if s.layout.ReadAux(row) < d {
		s.updateRow(home, false, func(wrow []uint64) error {
			s.layout.WriteAux(wrow, d)
			return nil
		})
	}
}

// Reach returns the overflow reach recorded for a bucket (from the
// shadow when the bucket is quarantined — the stored aux bits are not
// trustworthy then).
func (s *Slice) Reach(bucket uint32) int {
	if s.ecc != nil && s.ecc.quar[bucket].Load() {
		return int(s.layout.ReadAux(s.ecc.shadowRow(bucket)))
	}
	return int(s.layout.ReadAux(s.array.PeekRow(bucket)))
}

// LookupResult reports the outcome of a search.
type LookupResult struct {
	Found      bool
	Record     match.Record
	RowsRead   int  // buckets examined — the per-lookup AMAL contribution
	Multi      bool // more than one slot matched in the winning bucket
	Erred      bool // a probed row was unavailable (quarantined/unreadable)
	HomeBucket uint32
}

// Lookup searches for a key: one access to the home bucket, then — only
// if the bucket had overflowed — subsequent buckets up to the recorded
// reach. The search key may carry don't-care bits (search-key masking);
// stored ternary masks are honored per Figure 4(b). The first match in
// probe order wins, so insertion order defines priority.
func (s *Slice) Lookup(search bitutil.Ternary) LookupResult {
	return s.probe(search, nil, nil)
}

// LookupTraced is Lookup recording the probe chain into a
// request-scoped trace: one event per bucket probed (bucket index,
// displacement, slots tested, match count, overflow hop), an aggregate
// match-kernel event, and the lookup summary (home bucket, recorded
// reach, rows accessed). A nil trace makes every recording call a
// no-op, so this IS the hot path — the alloc-regression CI holds the
// nil-trace walk to zero allocations.
func (s *Slice) LookupTraced(search bitutil.Ternary, tr *trace.Trace) LookupResult {
	return s.probe(search, nil, tr)
}

// LookupBest searches the full reach of the bucket chain and returns
// the matching record with the highest score (ties to the earliest
// match). This is the LPM-style search: a longer prefix may live
// anywhere within the reach, so early exit is not sound.
func (s *Slice) LookupBest(search bitutil.Ternary, score func(match.Record) int) LookupResult {
	return s.probe(search, score, nil)
}

// LookupBestTraced is LookupBest with the same trace contract as
// LookupTraced.
func (s *Slice) LookupBestTraced(search bitutil.Ternary, score func(match.Record) int, tr *trace.Trace) LookupResult {
	return s.probe(search, score, tr)
}

// probe walks one key's probe chain through the row port — the one
// port-locked fetch loop behind Lookup and LookupBest, and the locked
// counterpart of Reader.chain. Each row is fetched through
// fetchChecked, matched over its bound and folded into the walk by
// step. With score nil the first match in probe order wins; otherwise
// the whole reach is scanned for the best-scoring match.
func (s *Slice) probe(search bitutil.Ternary, score func(match.Record) int, tr *trace.Trace) LookupResult {
	home := s.Index(search.Value)
	res := LookupResult{HomeBucket: home}
	w := walk{res: &res}
	rows := s.rows
	for d := 0; d <= w.reach && d < rows; d++ {
		idx := uint32((int(home) + d) % rows)
		row, ok := s.fetchChecked(idx, tr)
		if !ok {
			// Row unavailable (quarantined or unreadable): its slots
			// cannot be tested, so the result is at best a partial miss.
			// For the home row, recover the reach from the maintenance
			// view (the shadow when quarantined) so spilled records stay
			// findable while the home is out of service.
			w.res.Erred = true
			if d == 0 {
				w.reach = s.Reach(home)
			}
			continue
		}
		s.bank.SearchPrefixInto(&s.res, row, search, s.bound(idx))
		reach, best := s.scan(d, row, &s.res, score)
		if s.step(&w, idx, d, reach, best, &s.res, score, tr) {
			break
		}
	}
	s.finish(&w, tr)
	s.recordLookup(&res)
	return res
}

// walk is the state one key's probe chain carries from row to row. The
// result it builds is the caller's, filled in place.
type walk struct {
	res                    *LookupResult
	reach, bestScore       int
	slots, matches, passes int
}

// scan reads from one matched row the rest of what step folds: the
// reach, from the home row (d == 0), and for a ranked walk the row's
// best-scoring hit, which replaces m.Record (the row's first hit), and
// its score. Slots are visited in ascending order and only a strictly
// higher score displaces the holder, so ties stay with the earliest
// slot, and folding the rows' bests in probe order keeps the earliest
// (row, slot) of the best score. It reads the row and nothing else: a
// Reader runs it inside the row's seqlock window.
func (s *Slice) scan(d int, row []uint64, m *match.Result, score func(match.Record) int) (reach, best int) {
	if d == 0 {
		reach = int(s.layout.ReadAux(row))
	}
	if score == nil {
		return reach, 0
	}
	found := false
	for w, v := range m.Vector {
		for ; v != 0; v &= v - 1 {
			rec, _ := s.layout.ReadSlot(row, w*64+bits.TrailingZeros64(v))
			if sc := score(rec); !found || sc > best {
				found, m.Record, best = true, rec, sc
			}
		}
	}
	return reach, best
}

// step folds one matched row, as scan read it, into the walk — the
// per-row step the port-locked loop (probe) and the seqlock loop
// (Reader.chain) share: count the row, take the home row's reach, record
// the probe, and keep the first match or the best-scoring one. It reads
// no row, so a Reader runs it only once the row validated. It reports
// whether the chain is decided.
func (s *Slice) step(w *walk, idx uint32, d, reach, best int, m *match.Result, score func(match.Record) int, tr *trace.Trace) bool {
	w.res.RowsRead++
	if d == 0 {
		w.reach = reach
	}
	if tr.Enabled() {
		tr.Probe(idx, d, m.SlotsTested, m.Count, m.Matched())
		w.slots += m.SlotsTested
		w.matches += m.Count
		w.passes += m.Passes
	}
	if !m.Matched() {
		return false
	}
	if score == nil {
		w.res.Found, w.res.Record, w.res.Multi = true, m.Record, m.Multi()
		return true
	}
	if !w.res.Found || best > w.bestScore {
		w.res.Found, w.res.Record, w.bestScore = true, m.Record, best
	}
	return false
}

// finish records the walk's trailing trace events.
func (s *Slice) finish(w *walk, tr *trace.Trace) {
	if tr.Enabled() {
		tr.Match(w.slots, w.matches, w.passes)
		tr.Lookup(w.res.HomeBucket, w.reach, w.res.RowsRead, w.res.Found)
	}
}

// recordLookup accounts one finished lookup. Atomic adds: it is shared
// by the port-locked Lookup* methods and lock-free Readers.
func (s *Slice) recordLookup(res *LookupResult) {
	hits := uint64(0)
	if res.Found {
		hits = 1
	}
	s.recordLookups(1, uint64(res.RowsRead), hits)
	if res.Erred {
		s.stats.erred.Add(1)
	}
}

// recordLookups accounts n finished lookups that read rows rows in all
// and found hits records: one atomic add per counter that moves, however
// many lookups a Reader batch sums into it.
func (s *Slice) recordLookups(n, rows, hits uint64) {
	if n == 0 {
		return
	}
	s.stats.lookups.Add(n)
	s.stats.rowsAccessed.Add(rows)
	if hits > 0 {
		s.stats.hits.Add(hits)
	}
	if n > hits {
		s.stats.misses.Add(n - hits)
	}
}

// locate finds the bucket and slot holding a key (exact ternary
// equality, not match semantics), scanning the home bucket's reach the
// way a search does: each row's slots below its bound go through the
// slot comparator, into the caller's scratch res, and every hit is
// confirmed by the exact test (match.Searcher.Locate). Quarantined rows
// are scanned through their shadow — the logical contents — so
// maintenance operations keep seeing the true database while the stored
// row is out of service. Rows are peeked: nothing is charged. used is
// how many records the home row holds below its bound, for the insert
// that follows a miss.
func (s *Slice) locate(res *match.Result, home uint32, key bitutil.Ternary) (bucket uint32, slot, used int, found bool) {
	rows := s.rows
	reach := 0
	for d := 0; d <= reach && d < rows; d++ {
		idx := uint32((int(home) + d) % rows)
		row := s.logicalRow(idx, s.array.PeekRow(idx))
		if d == 0 {
			// First, so that the aux word — the row's last, rarely on a
			// cache line the slots below the bound share — is on its way
			// while the comparators wait for the first.
			reach = int(s.layout.ReadAux(row))
		}
		slot = s.bank.Locate(res, row, key, s.bound(idx))
		if slot >= 0 {
			return idx, slot, used, true
		}
		if d == 0 {
			used = res.SlotsTested
		}
	}
	return 0, 0, used, false
}

// Delete removes the record with exactly this key (value and mask).
// The home bucket's reach is left as-is — conservative but correct, as
// the paper's insert/delete maintenance via auxiliary bits implies.
func (s *Slice) Delete(key bitutil.Ternary) error {
	return s.DeleteAt(s.Index(key.Value), key)
}

// DeleteAt removes the first copy of key in probe order from home, one of
// its homes, and gives back the bookkeeping that copy's Place took: a
// key's copies sit in the probe order of their ascending homes, so
// deleting through its homes in ascending order removes each its own.
func (s *Slice) DeleteAt(home uint32, key bitutil.Ternary) error {
	if int(home) >= s.rows {
		return fmt.Errorf("caram: home bucket %d out of range", home)
	}
	bucket, slot, _, found := s.locate(&s.res, home, key)
	if !found {
		return ErrNotFound
	}
	if s.ecc != nil && s.ecc.quar[bucket].Load() {
		// The row is out of service: delete from the authoritative
		// shadow, so the scrub restores the row without this record.
		s.keep(bucket)
		s.layout.ClearSlot(s.ecc.shadowRow(bucket), slot)
	} else {
		s.updateRow(bucket, true, func(row []uint64) error {
			s.layout.ClearSlot(row, slot)
			return nil
		})
	}
	s.book(home, s.distance(home, bucket), -1)
	return nil
}

// distance is how far down home's probe chain bucket lies.
func (s *Slice) distance(home, bucket uint32) int {
	return (int(bucket) - int(home) + s.rows) % s.rows
}

// Contains reports whether the exact key is stored, without touching
// the lookup statistics. Like every locate caller it runs on the port
// (the caller serializes it with the writer) and matches into s.res.
func (s *Slice) Contains(key bitutil.Ternary) bool {
	_, _, _, found := s.locate(&s.res, s.Index(key.Value), key)
	return found
}

// Records calls fn for every stored record in bucket/slot order,
// stopping early if fn returns false. It reads via PeekRow and charges
// no accesses (a diagnostic, not a hardware operation).
func (s *Slice) Records(fn func(bucket uint32, slot int, rec match.Record) bool) {
	for b := 0; b < s.rows; b++ {
		row := s.logicalRow(uint32(b), s.array.PeekRow(uint32(b)))
		for i, n := 0, s.bound(uint32(b)); i < n; i++ {
			if rec, ok := s.layout.ReadSlot(row, i); ok {
				if !fn(uint32(b), i, rec) {
					return
				}
			}
		}
	}
}

// Clear empties the slice and resets placement bookkeeping (statistics
// are kept; use ResetStats separately).
func (s *Slice) Clear() {
	if s.frz.Load() != nil {
		panic("caram: Clear with a freeze open") // recovery only: nothing is snapshotting yet
	}
	s.array.Clear()
	for i := range s.mark {
		s.mark[i].Store(0)
	}
	s.resetECC()
	s.rebuildPlacement() // of nothing: zeroes it
}
