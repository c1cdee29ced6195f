package caram

import (
	"fmt"
	"math"
	"slices"
	"sort"

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
// Scratch discipline: proc.Search returns a Result whose Vector
// aliases the processor's scratch (valid only until the next Search).
// Every loop below finishes consuming one row's Vector before
// searching the next row, so no Clone is needed; code that retains a
// Result across searches must call Result.Clone.

// CountWhere returns how many stored records match the (possibly
// masked) search key, streaming the whole array through the match
// processors.
func (s *Slice) CountWhere(search bitutil.Ternary) int {
	n := 0
	for b := 0; b < s.rows; b++ {
		row := s.logicalRow(uint32(b), s.array.ReadRow(uint32(b)))
		res := s.proc.Search(row, search)
		n += res.Count
	}
	return n
}

// SelectWhere returns every stored record matching the search key, in
// bucket/slot order.
func (s *Slice) SelectWhere(search bitutil.Ternary) []match.Record {
	var out []match.Record
	for b := 0; b < s.rows; b++ {
		row := s.logicalRow(uint32(b), s.array.ReadRow(uint32(b)))
		out = append(out, s.proc.SearchAll(row, search)...)
	}
	return out
}

// UpdateWhere applies fn to the data field of every record matching
// the search key, writing each modified row back once. It returns the
// number of records updated.
func (s *Slice) UpdateWhere(search bitutil.Ternary, fn func(match.Record) bitutil.Vec128) int {
	updated := 0
	for b := 0; b < s.rows; b++ {
		quar := s.Quarantined(uint32(b))
		row := s.logicalRow(uint32(b), s.array.ReadRow(uint32(b)))
		res := s.proc.Search(row, search)
		if res.Count == 0 {
			continue
		}
		// Quarantined rows are transformed in their shadow (row already
		// aliases it); in-service rows publish through the charged
		// seqlock write window.
		rewrite := func(wrow []uint64) error {
			for i := 0; i < s.layout.Slots(); i++ {
				if res.Vector[i/64]>>uint(i%64)&1 == 0 {
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
			rewrite(row)
		} else {
			s.updateRow(uint32(b), true, rewrite)
		}
	}
	return updated
}

// DeleteWhere removes every record matching the search key and returns
// how many were removed. Placement bookkeeping is rebuilt afterwards,
// since bulk deletion invalidates the incremental spill counters.
func (s *Slice) DeleteWhere(search bitutil.Ternary) int {
	deleted := 0
	for b := 0; b < s.rows; b++ {
		quar := s.Quarantined(uint32(b))
		row := s.logicalRow(uint32(b), s.array.ReadRow(uint32(b)))
		res := s.proc.Search(row, search)
		if res.Count == 0 {
			continue
		}
		clear := func(wrow []uint64) error {
			for i := 0; i < s.layout.Slots(); i++ {
				if res.Vector[i/64]>>uint(i%64)&1 == 1 {
					s.layout.ClearSlot(wrow, i)
					deleted++
				}
			}
			return nil
		}
		if quar {
			clear(row)
		} else {
			s.updateRow(uint32(b), true, clear)
		}
	}
	if deleted > 0 {
		s.count -= deleted
		s.rebuildPlacement()
	}
	return deleted
}

// rebuildPlacement recomputes homeLoad/overflow/spilled from the
// array's contents. Valid only when every record's home is its key's
// index (i.e. not after foreign InsertAt placements).
func (s *Slice) rebuildPlacement() {
	for i := range s.homeLoad {
		s.homeLoad[i] = 0
		s.overflow[i] = false
	}
	s.spilled = 0
	if s.foreign {
		return // homes unknowable; leave counters cleared
	}
	rows := s.rows
	s.Records(func(bucket uint32, slot int, rec match.Record) bool {
		home := s.Index(rec.Key.Value)
		s.homeLoad[home]++
		if bucket != home {
			s.spilled++
			s.overflow[home] = true
			d := (int(bucket) - int(home) + rows) % rows
			s.raiseReach(home, uint64(d))
		}
		return true
	})
}

// BuildFromRecords bulk-loads a database: records are placed in
// priority order (descending score when score is non-nil, so the
// priority encoder resolves multi-matches the way the application
// wants) after clearing the slice. This is the §3.2 database
// construction path, the software analogue of a DMA fill. It returns
// the number of records that could not be placed.
func (s *Slice) BuildFromRecords(records []match.Record, score func(match.Record) int) int {
	s.Clear()
	ordered := append([]match.Record(nil), records...)
	if score != nil {
		sort.SliceStable(ordered, func(i, j int) bool { return score(ordered[i]) > score(ordered[j]) })
	}
	unplaced := 0
	for _, rec := range ordered {
		if err := s.Insert(rec); err != nil {
			unplaced++
		}
	}
	return unplaced
}

// Image returns a copy of the slice's raw storage — the bit-for-bit
// database image RAM mode exposes for DMA-style copies (§3.2).
func (s *Slice) Image() []uint64 {
	out := make([]uint64, s.array.Words())
	for w := 0; w < s.array.Words(); w++ {
		out[w] = s.array.ReadWord(w)
	}
	return out
}

// Capture is the slice's logical image — quarantined rows contribute
// their shadow, the §3.2 authoritative host-side copy — kept in
// O(occupied words): the image durability snapshots persist. Row b
// keeps spans[b] words from its start, the words its occupancy mark
// covers (markWords), then its aux words, and none of the zero words
// between. Rows are kept whole, spans left empty, where bits may sit
// above a mark (wholeRows) or a row is too wide for a u8 count. The
// words live in fixed blocks, no row split across two, so a table that
// grows between captures adds a block rather than copying the capture;
// a Capture handed back to CaptureInto reuses them and allocates nothing.
type Capture struct {
	blocks                  [][]uint64
	spans                   []uint8
	rows, rowWords, auxWord int
	run                     []uint64 // Each's run of full-width rows
}

const (
	captureBlock = 1 << 13 // words per storage block (64 KiB), or one row if wider
	captureRun   = 1 << 12 // words Each expands at a time (32 KiB)
)

// CaptureInto fills c with the slice's logical contents. The caller
// excludes writers (the subsystem holds the engine's read lock), so
// marks and rows agree. Uncharged (PeekWords), like Records:
// serialization is host work, not a modeled memory access.
func (s *Slice) CaptureInto(c *Capture) {
	rw, aux := s.array.RowWords(), s.array.RowWords()-s.auxWord
	if c.rowWords != rw {
		c.blocks = nil // sized for another row width
	}
	c.rows, c.rowWords, c.auxWord = s.rows, rw, s.auxWord
	whole := s.wholeRows() || s.auxWord > math.MaxUint8
	if c.spans = c.spans[:0]; !whole {
		c.spans = slices.Grow(c.spans, c.rows)[:c.rows]
	}
	data, blk, next := s.array.PeekWords(), []uint64(nil), 0
	for b := 0; b < c.rows; b++ {
		row, k := data[:rw:rw], s.auxWord
		data = data[rw:]
		if whole {
			row = s.logicalRow(uint32(b), row)
		} else {
			k = s.markWords(int(s.mark[b].Load()))
			c.spans[b] = uint8(k)
		}
		if len(blk) < k+aux {
			if next == len(c.blocks) {
				c.blocks = append(c.blocks, make([]uint64, max(captureBlock, rw)))
			}
			blk, next = c.blocks[next], next+1
		}
		copy(blk, row[:k])
		for i, v := range row[s.auxWord:] { // a word or two: cheaper than a copy call
			blk[k+i] = v
		}
		blk = blk[k+aux:]
	}
}

// Len returns how many words the captured image holds at full width —
// the array's word count.
func (c *Capture) Len() int { return c.rows * c.rowWords }

// Each calls fn with the captured image at full width — the words
// between a span and the aux words zero-filled — as consecutive runs of
// whole rows, in row order. A run is valid only until fn returns.
func (c *Capture) Each(fn func(rows []uint64)) {
	rw, aux := c.rowWords, c.rowWords-c.auxWord
	if cap(c.run) < max(captureRun, rw) {
		c.run = make([]uint64, max(captureRun, rw))
	}
	run, n, blk, next := c.run[:max(captureRun/rw, 1)*rw], 0, []uint64(nil), 0
	for b := 0; b < c.rows; b++ {
		row, k := run[n:n+rw], c.auxWord
		if len(c.spans) > 0 {
			k = int(c.spans[b])
		}
		if len(blk) < k+aux { // where CaptureInto moved to its next block
			blk, next = c.blocks[next], next+1
		}
		copy(row, blk[:k])
		clear(row[k:c.auxWord])
		for i := range aux {
			row[c.auxWord+i] = blk[k+i]
		}
		blk = blk[k+aux:]
		if n += rw; n == len(run) || b == c.rows-1 {
			fn(run[:n])
			n = 0
		}
	}
}

// LoadImage installs a raw storage image produced by Image on a slice
// with identical geometry, rebuilding the placement bookkeeping. The
// receiving slice must use the same layout and index generator for the
// counters to be meaningful.
func (s *Slice) LoadImage(img []uint64) error {
	return s.LoadImageFrom(len(img), func(row []uint64) error {
		img = img[copy(row, img):]
		return nil
	})
}

// LoadImageFrom is LoadImage over a stream: next fills the buffer it is
// handed with the image's next row, so a loader that decodes from a
// file never holds more of the image than one row. The geometry is
// checked before the first row is asked for. An error from next stops
// the load and is returned; the bookkeeping is still rebuilt over what
// was installed, so the slice stays self-consistent.
func (s *Slice) LoadImageFrom(words int, next func(row []uint64) error) error {
	if words != s.array.Words() {
		return fmt.Errorf("caram: image of %d words for an array of %d", words, s.array.Words())
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
	s.count = 0
	s.Records(func(uint32, int, match.Record) bool { s.count++; return true })
	s.rebuildPlacement()
	return err
}
