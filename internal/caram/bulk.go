package caram

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"caram/internal/bitutil"
	"caram/internal/match"
)

// Massive data evaluation and modification (§1, §3.1): because the
// match logic is decoupled from the memory array, a CA-RAM can stream
// its rows through the match processors and evaluate or transform
// every matching record — the capability the paper contrasts against
// CAM, whose per-row logic does comparison only. Each row costs one
// read (plus one write when modified), so a whole-database pass is
// Rows() accesses regardless of the predicate.
//
// The scans read through the row port's checked fetch, as lookups do:
// on an ECC slice a single-bit error at rest is corrected before the
// row is matched, and a row that is quarantined — before the scan or by
// its own fetch — is matched and changed in its shadow, the host-side
// copy (§3.2), never written through the port. A row already out of
// service charges no access; the fetch that quarantines a row charges
// its read.
//
// The scans match on the port's bank into its scratch, s.res: every
// loop below finishes consuming one row's match vector before searching
// the next row.

// scanRow fetches row idx for a scan: the checked row, or its shadow
// when the fetch did not deliver one. quar reports whether the row is
// out of service after the fetch.
func (s *Slice) scanRow(idx uint32) (row []uint64, quar bool) {
	row, ok := s.fetchChecked(idx, nil)
	if ok {
		return row, false
	}
	return s.ecc.shadowRow(idx), s.ecc.quar[idx].Load()
}

// SelectWhere returns every stored record matching the search key, in
// bucket/slot order.
func (s *Slice) SelectWhere(search bitutil.Ternary) []match.Record {
	var out []match.Record
	for b := 0; b < s.rows; b++ {
		row, _ := s.scanRow(uint32(b))
		out = s.bank.AppendAll(out, &s.res, row, search)
	}
	return out
}

// SelectChain is SelectWhere over one bucket chain: the search key's
// home bucket through the reach its aux field records — the rows a
// lookup may probe. It returns the matches in bucket/slot order and how
// many rows it read.
func (s *Slice) SelectChain(search bitutil.Ternary) (out []match.Record, rows int) {
	home := s.Index(search.Value)
	for d, reach := 0, 0; d <= reach && d < s.rows; d++ {
		row, _ := s.scanRow(uint32((int(home) + d) % s.rows))
		if d == 0 {
			reach = int(s.layout.ReadAux(row))
		}
		out = s.bank.AppendAll(out, &s.res, row, search)
		rows++
	}
	return out, rows
}

// UpdateWhere applies fn to the data field of every record matching
// the search key, writing each modified row back once. It returns the
// number of records updated.
func (s *Slice) UpdateWhere(search bitutil.Ternary, fn func(match.Record) bitutil.Vec128) int {
	updated := 0
	for b := 0; b < s.rows; b++ {
		row, quar := s.scanRow(uint32(b))
		s.bank.SearchInto(&s.res, row, search)
		if s.res.Count == 0 {
			continue
		}
		// Quarantined rows are transformed in their shadow (row already
		// aliases it); in-service rows publish through the charged
		// seqlock write window.
		rewrite := func(wrow []uint64) error {
			for i := 0; i < s.layout.Slots(); i++ {
				if s.res.Vector[i/64]>>uint(i%64)&1 == 0 {
					continue
				}
				rec, _ := s.layout.ReadSlot(wrow, i)
				rec.Data = fn(rec)
				if err := s.layout.WriteSlot(wrow, i, rec); err != nil {
					// Unreachable: the record came from this layout.
					panic(fmt.Sprintf("caram: UpdateWhere rewrite: %v", err))
				}
				updated++
			}
			return nil
		}
		if quar {
			s.keep(uint32(b))
			rewrite(row)
		} else {
			s.updateRow(uint32(b), true, rewrite)
		}
	}
	return updated
}

// rebuildPlacement recomputes the placement bookkeeping from the array's
// contents as place and DeleteAt kept it. A copy of a key with one home
// is that home's. The copies of a key with several, in probe order from
// its first home, are its homes' in ascending order: the order a
// duplicated insert places them in, which they keep (place never passes
// over a row a later copy could take); a key stored more than once
// shares its homes out in that order. Reach is left alone: the image's
// aux words already hold it.
func (s *Slice) rebuildPlacement() {
	s.count, s.disp = 0, 0
	clear(s.homeLoad)
	clear(s.spill)
	multi := map[bitutil.Ternary][]placedCopy{}
	var one [1]uint32
	s.Records(func(bucket uint32, slot int, rec match.Record) bool {
		if homes := s.homes(one[:0], rec.Key); len(homes) > 1 {
			k := rec.Key.Normalize()
			multi[k] = append(multi[k], placedCopy{s.distance(homes[0], bucket), slot, bucket})
		} else {
			s.book(homes[0], s.distance(homes[0], bucket), 1)
		}
		return true
	})
	var homes []uint32
	for key, copies := range multi {
		slices.SortFunc(copies, func(a, b placedCopy) int { return cmp.Or(a.d-b.d, a.slot-b.slot) })
		homes = s.homes(homes[:0], key)
		for k, c := range copies {
			h := homes[k*len(homes)/len(copies)]
			s.book(h, s.distance(h, c.bucket), 1)
		}
	}
}

// placedCopy is where a copy of a key with several homes is stored, and
// its probe distance from the key's first home.
type placedCopy struct {
	d, slot int
	bucket  uint32
}

// Freeze is a slice's logical image at one instant — quarantined rows as
// their shadow — streamed later while the writer carries on: what
// durability snapshots persist, without a copy of the table. Before
// anything changes a row's logical contents the writer calls keep, which
// copies an unstreamed row's pre-image into the slab once; the walker
// (Each) takes each row from the slab if kept, else live, and moves the
// cursor past it under the freeze's mutex, so it never copies a row
// while it is being written. A slice has one Freeze, its storage reused
// by every freeze it opens (DESIGN.md, "Durability memory model").
type Freeze struct {
	s    *Slice
	mu   sync.Mutex
	next atomic.Int64 // rows below next are streamed
	at   []uint32     // per row: 1 + its pre-image's index in slab, 0 = not kept
	slab []uint64     // kept pre-images, a row each; the whole table at worst
	run  []uint64     // Each's run of full-width rows
}

// freezeRun is the words Each streams per run (4 KiB), or one row if wider.
var freezeRun = 1 << 9

// Freeze opens a point-in-time freeze, copying nothing, while the caller excludes the writer.
func (s *Slice) Freeze() *Freeze {
	f := &s.frozen
	if !s.frz.CompareAndSwap(nil, f) {
		panic("caram: Freeze with a freeze already open")
	}
	f.s, f.slab = s, f.slab[:0]
	f.next.Store(0)
	return f
}

// keep runs before anything changes row idx's logical contents; no freeze open, it is one load.
func (s *Slice) keep(idx uint32) {
	if f := s.frz.Load(); f != nil {
		f.keep(idx)
	}
}

func (f *Freeze) keep(idx uint32) {
	if int64(idx) < f.next.Load() {
		return // streamed: the walker will not read it again
	}
	f.lock()
	f.at = slices.Grow(f.at[:0], f.s.rows)[:f.s.rows] // made by the first keep, then kept
	if int64(idx) >= f.next.Load() && f.at[idx] == 0 {
		rw, n := f.s.array.RowWords(), len(f.slab)
		f.slab = slices.Grow(f.slab, rw)[:n+rw]
		f.copyRow(idx, f.slab[n:])
		f.at[idx] = uint32(n/rw + 1)
	}
	f.mu.Unlock()
}

// copyRow copies row idx's live logical contents: an ECC slice's shadow —
// the §3.2 authoritative copy, whatever the quarantine — else storage.
func (f *Freeze) copyRow(idx uint32, dst []uint64) {
	if f.s.ecc != nil {
		copy(dst, f.s.ecc.shadowRow(idx))
		return
	}
	for !f.s.array.TryPeekRow(idx, dst) {
		runtime.Gosched()
	}
}

// lock spins: a hold is one run's copy; a parked writer waits out the walker's time slice.
func (f *Freeze) lock() {
	for !f.mu.TryLock() {
		runtime.Gosched()
	}
}

// Len returns how many words the frozen image holds: the array's.
func (f *Freeze) Len() int { return f.s.array.Words() }

// Each calls fn with the frozen image as consecutive runs of whole rows,
// valid until fn returns, then releases the freeze. fn holds no lock.
func (f *Freeze) Each(fn func(rows []uint64)) {
	defer f.Release()
	rw, rows := f.s.array.RowWords(), f.s.rows
	per := max(freezeRun/rw, 1)
	f.run = slices.Grow(f.run[:0], per*rw)
	for b := 0; b < rows; b += per {
		run := f.run[:min(per, rows-b)*rw]
		f.stream(b, rw, run)
		fn(run)
	}
}

// stream fills run with the frozen rows from row b and moves the cursor
// past them, in one hold of the mutex.
func (f *Freeze) stream(b, rw int, run []uint64) {
	f.lock()
	defer f.mu.Unlock()
	for i := 0; i < len(run); i += rw {
		if idx := b + i/rw; f.at != nil && f.at[idx] != 0 {
			copy(run[i:i+rw], f.slab[int(f.at[idx]-1)*rw:])
			f.at[idx] = 0
		} else {
			f.copyRow(uint32(idx), run[i:i+rw])
		}
	}
	f.next.Store(int64(b + len(run)/rw))
}

// Release ends the freeze. It is idempotent; Each calls it when done.
func (f *Freeze) Release() {
	if f.s.frz.CompareAndSwap(f, nil) {
		f.lock()
		clear(f.at[min(int(f.next.Load()), len(f.at)):]) // what a walk cut short left kept
		f.next.Store(int64(f.s.rows))                    // a keep that loaded f before the swap finds nothing to do
		f.mu.Unlock()
	}
}

// LoadImageFrom installs a storage image — a Freeze's, streamed — on a
// slice with identical geometry, rebuilding the placement bookkeeping:
// the RAM-mode bulk load of §3.2. next fills the buffer it is handed
// with the image's next row, so a loader that decodes from a file never
// holds more of the image than one row. The receiving slice must use
// the same layout and index generator for the counters to be
// meaningful. The geometry is checked before the first row is asked
// for. An error from next stops the load and is returned; the
// bookkeeping is still rebuilt over what was installed, so the slice
// stays self-consistent.
func (s *Slice) LoadImageFrom(words int, next func(row []uint64) error) error {
	if words != s.array.Words() {
		return fmt.Errorf("caram: image of %d words for an array of %d", words, s.array.Words())
	}
	if s.frz.Load() != nil {
		panic("caram: LoadImageFrom with a freeze open") // recovery only: nothing is snapshotting yet
	}
	// Readers racing the load fetch whole rows until the marks are
	// rebuilt from the new contents: a mark may overstate, never
	// understate.
	for i := range s.mark {
		s.mark[i].Store(uint32(s.layout.Slots()))
	}
	row := make([]uint64, s.array.RowWords())
	var err error
	for b := 0; b < s.rows && err == nil; b++ {
		if err = next(row); err == nil {
			s.array.LoadRow(uint32(b), row)
		}
	}
	s.rebuildMarks()
	if s.ecc != nil {
		// The image replaced every row wholesale: rebuild the check
		// words and shadow from the new contents.
		s.EnableECC()
	}
	s.rebuildPlacement()
	return err
}
