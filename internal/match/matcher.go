package match

import (
	"caram/internal/bitutil"
)

// matcher is the compiled comparator bank for one layout: the
// row-resident, word-parallel realization of §3.3 steps 1–2. Where the
// legacy path decodes every slot with ReadSlot and compares records one
// at a time, the matcher tests all slots of a fetched row at once with
// whole-uint64 XOR/mask sweeps (bitutil.CompareInto), exactly the shape
// of the Figure 4(b) comparator bank:
//
//	step 1 (expand)  — the search key is replicated across a row-sized
//	                   image, one copy per slot key field, overlapped
//	                   with the memory access in hardware (expand);
//	step 2 (match)   — diff = (row ^ image) & care &^ storedMask, where
//	                   care drops search-key don't-care bits and
//	                   storedMask is the row's own mask fields shifted
//	                   into key alignment (both don't-care directions);
//	                   a slot matches iff its valid+key region of diff
//	                   is all zero.
//
// Binary layouts whose key fits one word (KeyBits <= 64) compile to
// the narrow comparator instead (narrow.go): the choice is made once,
// here, from the layout, and both kernels sit behind search.
//
// Everything the matcher touches per search is pre-allocated at build
// time, so the kernel performs zero allocations per row.
type matcher struct {
	layout Layout
	words  int // row image size in uint64 words
	passes int // ceil(S/P) pipelined passes per search
	vwords int // match vector size in uint64 words

	// Narrow kernel (nil narrow = wide kernel below).
	narrow  []narrowSlot
	keyMask uint64
	pad     []uint64 // zero-extended copy of a row shorter than words

	// Static images compiled from the layout.
	keyOnly   []uint64 // 1s over every slot's key-value field
	careExact []uint64 // keyOnly plus every slot's valid bit
	slots     []slotRef
	keyFields []int // bit offset of each slot's key-value field

	// Per-search scratch.
	expValue []uint64 // valid bits preset to 1; key fields hold the expanded key
	expCare  []uint64 // careExact with search-key don't-care bits dropped
	shifted  []uint64 // ternary layouts: row >> KeyBits, masked to key fields
	diff     []uint64 // cared mismatch bits of the current row

	// Expansion cache: re-expanding is skipped while consecutive
	// searches carry the same ternary key (the common case inside one
	// probe chain).
	curCare    []uint64
	last       bitutil.Ternary
	have       bool
	impossible bool // the key cares about bits above KeyBits: nothing can match
}

// slotRef locates one slot's comparator inputs inside the row image.
type slotRef struct {
	validWord  int  // word holding the slot's valid bit
	validShift uint // bit position of the valid bit within that word
	nparts     int
	parts      [3]slotPart // words covering [base, base+1+KeyBits)
}

// slotPart selects the slice of one word belonging to a slot's
// valid+key region.
type slotPart struct {
	word int
	mask uint64
}

// newMatcher compiles the comparator bank for a layout served by p
// match processors (p <= 0: one per slot, the desirable case of §3.1).
func newMatcher(l Layout, p int) *matcher {
	words := bitutil.RowWords(l.RowBits)
	s := l.Slots()
	if p <= 0 {
		p = s
	}
	m := &matcher{layout: l, words: words, passes: (s + p - 1) / p, vwords: (s + 63) / 64}
	if !l.Ternary && l.KeyBits <= 64 {
		m.compileNarrow()
		return m
	}
	m.keyOnly = make([]uint64, words)
	m.careExact = make([]uint64, words)
	m.slots = make([]slotRef, s)
	m.keyFields = make([]int, s)
	m.expValue = make([]uint64, words)
	m.expCare = make([]uint64, words)
	m.diff = make([]uint64, words)
	if l.Ternary {
		m.shifted = make([]uint64, words)
	}
	one := bitutil.FromUint64(1)
	keyMask := bitutil.Mask(l.KeyBits)
	for i := 0; i < s; i++ {
		base := l.slotBase(i)
		off := base + 1 // key-value field
		m.keyFields[i] = off
		bitutil.SetBits(m.careExact, base, 1, one)
		bitutil.SetBits(m.careExact, off, l.KeyBits, keyMask)
		bitutil.SetBits(m.keyOnly, off, l.KeyBits, keyMask)
		// A slot only matches when its valid bit is 1, so the expanded
		// image demands a 1 there; the bit never changes across searches.
		bitutil.SetBits(m.expValue, base, 1, one)

		sr := &m.slots[i]
		sr.validWord, sr.validShift = base/64, uint(base%64)
		lo, hi := base, base+1+l.KeyBits // the slot's valid+key region
		for w := lo / 64; w*64 < hi; w++ {
			mask := ^uint64(0)
			if d := lo - w*64; d > 0 {
				mask &= ^uint64(0) << uint(d)
			}
			if d := (w+1)*64 - hi; d > 0 {
				mask &= ^uint64(0) >> uint(d)
			}
			sr.parts[sr.nparts] = slotPart{word: w, mask: mask}
			sr.nparts++
		}
	}
	copy(m.expCare, m.careExact)
	m.curCare = m.careExact
	return m
}

// search runs §3.3 steps 1–4 over one row on whichever kernel the
// layout compiled to — the one body behind Processor.SearchInto and
// Searcher.SearchInto. The match vector lands in res.Vector's backing
// array (grown only when too small); every other field is overwritten.
func (m *matcher) search(res *Result, row []uint64, search bitutil.Ternary) {
	if cap(res.Vector) < m.vwords {
		res.Vector = make([]uint64, m.vwords)
	} else {
		res.Vector = res.Vector[:m.vwords]
	}
	res.Passes = m.passes
	if m.narrow != nil {
		m.searchNarrow(res, row, search)
		return
	}
	m.expand(search)
	res.First, res.Count, res.SlotsTested = m.matchRow(res.Vector, row)
	res.Record = Record{}
	if res.First >= 0 {
		res.Record, _ = m.layout.ReadSlot(row, res.First)
	}
}

// expand replicates the search key across the row image (§3.3 step 1).
// Consecutive searches with an identical key skip the work, so a probe
// chain expands once however many rows it visits.
func (m *matcher) expand(search bitutil.Ternary) {
	if m.have && search.Value == m.last.Value && search.Mask == m.last.Mask {
		return
	}
	m.last, m.have = search, true
	width := bitutil.Mask(m.layout.KeyBits)
	// A cared-for search bit above KeyBits can never equal a stored key
	// bit (the field truncates on write, so those bits read back zero
	// only when the search itself is zero there) — unless it is zero,
	// the whole row misses. This mirrors the legacy path, where the full
	// 128-bit ternary compare fails for every slot.
	m.impossible = !search.Value.AndNot(search.Mask).AndNot(width).IsZero()
	if m.impossible {
		return
	}
	for _, off := range m.keyFields {
		bitutil.SetBits(m.expValue, off, m.layout.KeyBits, search.Value)
	}
	if search.Mask.IsZero() {
		m.curCare = m.careExact
		return
	}
	m.curCare = m.expCare
	nm := width.AndNot(search.Mask)
	for _, off := range m.keyFields {
		bitutil.SetBits(m.expCare, off, m.layout.KeyBits, nm)
	}
}

// matchRow runs the comparator bank over one fetched row (§3.3 step 2)
// and priority-scans the result (step 3): the match vector lands in
// vec (len (S+63)/64, fully overwritten), and the return values carry
// the priority encoder's output plus the number of valid slots tested.
// expand must have been called for the current search key.
func (m *matcher) matchRow(vec, row []uint64) (first, count, valid int) {
	first = -1
	for i := range vec {
		vec[i] = 0
	}
	if m.impossible {
		// No slot can match, but the comparators still test every valid
		// slot — the stats contract of the slot-serial path.
		for i := range m.slots {
			sr := &m.slots[i]
			if sr.validWord < len(row) && row[sr.validWord]>>sr.validShift&1 == 1 {
				valid++
			}
		}
		return first, 0, valid
	}
	diff := m.diff
	if m.layout.Ternary {
		// Align every slot's stored don't-care mask with its own key
		// field in one row-wide shift, then silence those comparators.
		bitutil.ShrInto(m.shifted, row, m.layout.KeyBits)
		bitutil.AndInto(m.shifted, m.shifted, m.keyOnly)
		bitutil.CompareTernaryInto(diff, row, m.expValue, m.curCare, m.shifted)
	} else {
		bitutil.CompareInto(diff, row, m.expValue, m.curCare)
	}
	for i := range m.slots {
		sr := &m.slots[i]
		d := diff[sr.parts[0].word] & sr.parts[0].mask
		for k := 1; k < sr.nparts; k++ {
			d |= diff[sr.parts[k].word] & sr.parts[k].mask
		}
		// An invalid slot surfaces as a set valid bit in diff (the image
		// demands 1, missing row words read as zero), so it is neither
		// tested nor matchable.
		if diff[sr.validWord]>>sr.validShift&1 == 1 {
			continue
		}
		valid++
		if d != 0 {
			continue
		}
		vec[i>>6] |= 1 << uint(i&63)
		count++
		if first < 0 {
			first = i
		}
	}
	return first, count, valid
}
