package match

import (
	"caram/internal/bitutil"
)

// The narrow comparator: the kernel a binary layout with KeyBits <= 64
// compiles to. Such a key is one machine word, so expanding it across a
// row image (eight 128-bit SetBits per search for an 8-slot row) costs
// more than the compare it prepares. Instead each slot's comparator
// funnel-shifts its valid bit and key field out of the row at (word,
// shift) positions fixed at compile time and tests the field against
// the search word directly; the hit record's data field leaves the row
// the same way. Results are bit-identical to the wide kernel and to
// SearchSerial — the differential tests hold all three together.

// narrowSlot locates one slot's comparator inputs: the valid bit, and
// the two words a key field may straddle (kw2 == kw when it does not —
// the bits that then leak in above the field are masked off).
type narrowSlot struct {
	vw, kw, kw2 uint32
	vs, ks      uint8
}

// key funnel-shifts the slot's key field out of a full-length row. Bits
// above the field are the caller's to mask off.
func (ns *narrowSlot) key(row []uint64) uint64 {
	return row[ns.kw]>>ns.ks | row[ns.kw2]<<(64-ns.ks)
}

func (m *matcher) compileNarrow() {
	l := m.layout
	m.keyMask = bitutil.Mask(l.KeyBits).Lo
	m.pad = make([]uint64, m.words)
	m.narrow = make([]narrowSlot, l.Slots())
	for i := range m.narrow {
		base := l.slotBase(i)
		key := base + 1
		m.narrow[i] = narrowSlot{
			vw: uint32(base / 64), vs: uint8(base % 64),
			kw: uint32(key / 64), ks: uint8(key % 64),
			kw2: uint32((key + l.KeyBits - 1) / 64),
		}
	}
}

// field64 reads n <= 64 bits at bit offset off of the row — GetBits for
// fields of at most one word, without the 128-bit gather. Bits beyond
// the end of the row read as zero.
func field64(row []uint64, off, n int) uint64 {
	if n <= 0 {
		return 0
	}
	w, s := off/64, uint(off%64)
	var v uint64
	if w < len(row) {
		v = row[w] >> s
	}
	if s+uint(n) > 64 && w+1 < len(row) {
		v |= row[w+1] << (64 - s)
	}
	return v & (^uint64(0) >> uint(64-n))
}

// searchNarrow is §3.3 steps 2–4 for the narrow comparator (step 1,
// expansion, has nothing to do). Vector, First, Count, SlotsTested and
// Record are exactly the wide kernel's.
func (m *matcher) searchNarrow(res *Result, row []uint64, search bitutil.Ternary) {
	if len(row) < m.words {
		// Missing words read as zero, as in the wide kernel.
		n := copy(m.pad, row)
		for i := n; i < len(m.pad); i++ {
			m.pad[i] = 0
		}
		row = m.pad
	}
	care := m.keyMask &^ search.Mask.Lo
	want := search.Value.Lo & care
	if search.Value.Hi&^search.Mask.Hi != 0 || search.Value.Lo&^search.Mask.Lo&^m.keyMask != 0 {
		// A cared-for search bit above KeyBits can equal no stored key:
		// every valid slot is still tested, none can match.
		care, want = 0, 1
	}
	vec := res.Vector
	for i := range vec {
		vec[i] = 0
	}
	// Branch-free per slot: how full a row is and which slot holds the
	// key are data no predictor learns, and a mispredict costs more than
	// the few operations it would skip.
	var count, valid uint64
	for i := range m.narrow {
		ns := &m.narrow[i]
		v := row[ns.vw] >> ns.vs & 1
		diff := ns.key(row)&care ^ want
		hit := v &^ ((diff | -diff) >> 63) // valid, and no cared-for bit differs
		valid += v
		count += hit
		vec[i>>6] |= hit << uint(i&63)
	}
	first := PriorityEncode(vec)
	res.First, res.Count, res.SlotsTested = first, int(count), int(valid)
	res.Record = Record{}
	if first >= 0 {
		ns, l := &m.narrow[first], m.layout
		data := int(ns.kw)*64 + int(ns.ks) + l.KeyBits
		res.Record.Key.Value.Lo = ns.key(row) & m.keyMask
		res.Record.Data.Lo = field64(row, data, min(l.DataBits, 64))
		res.Record.Data.Hi = field64(row, data+64, l.DataBits-64)
	}
}
