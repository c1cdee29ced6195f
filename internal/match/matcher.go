package match

import (
	"math/bits"
	"sync/atomic"

	"caram/internal/bitutil"
)

// matcher is the compiled comparator bank for one layout: §3.3 steps
// 2–4 run slot by slot, the way the Figure 4(b) bank is wired. Each
// slot's comparator funnel-shifts its inputs — valid bit, key field
// and, on ternary layouts, the stored don't-care mask — out of the row
// at (word, shift) positions fixed at compile time and tests them
// against the search key directly:
//
//	diff = (key&care ^ want) &^ stored
//
// where care drops the search key's don't-care bits and stored is the
// slot's own mask field (both don't-care directions). A slot matches
// iff it is valid and diff is zero. Step 1, expanding the key across a
// row image, has no software counterpart: a key of one or two machine
// words is cheaper to compare in place than to replicate.
//
// A search is bounded: only slots [0, n) are tested, so a caller that
// knows every slot from n up is empty (the caram layer's per-row
// occupancy mark) pays for the records a row stores rather than for its
// capacity, and need not even have fetched the words above them.
//
// The layout selects one of four loop bodies at compile time (binary or
// ternary, key in one word or two); they differ only in how many fields
// a slot reads. Nothing is allocated per search.
type matcher struct {
	layout Layout
	words  int // row image size in uint64 words
	passes int // ceil(S/P) pipelined passes per search
	vwords int // match vector size in uint64 words

	slots []slotPos
	two   bool           // KeyBits > 64: key and mask fields span two words
	width bitutil.Vec128 // 1s over the key width
	pad   []uint64       // zero-extended copy of a row shorter than words
}

// slotPos locates one slot's comparator inputs: the valid bit, and the
// first and last word of the key field and of the stored-mask field.
// A one-word field reads (first, last), a two-word field (first,
// first+1) and (first+1, last); last == first when the field does not
// straddle, and the bits that then leak in above it are masked off by
// the care word.
type slotPos struct {
	vw, kw, kw2, mw, mw2 uint32
	vs, ks, ms           uint8
}

// query is the search key as the comparators consume it.
type query struct {
	careLo, careHi uint64 // key-width bits the search key cares about
	wantLo, wantHi uint64 // the search value under care
}

// funnel reads 64 bits of the row starting at bit s < 64 of word w, the
// upper part coming from word w2. (The &63s tell the compiler the shift
// counts are in range; <<1<<(63-s) is <<(64-s) with s = 0 yielding 0.)
func funnel(row []uint64, w, w2 uint32, s uint8) uint64 {
	return load(row, w)>>(s&63) | load(row, w2)<<1<<((63-s)&63)
}

// load is the kernel's one read of a row word: an atomic load, so that a
// lock-free reader may match a live row (caram.Reader validates its
// version afterwards). On amd64 it compiles to a plain MOV.
func load(row []uint64, w uint32) uint64 { return atomic.LoadUint64(&row[w]) }

// newMatcher compiles the comparator bank for a layout served by p
// match processors (p <= 0: one per slot, the desirable case of §3.1).
func newMatcher(l Layout, p int) *matcher {
	s := l.Slots()
	if p <= 0 {
		p = s
	}
	m := &matcher{
		layout: l,
		words:  bitutil.RowWords(l.RowBits),
		passes: (s + p - 1) / p,
		vwords: (s + 63) / 64,
		slots:  make([]slotPos, s),
		two:    l.KeyBits > 64,
		width:  bitutil.Mask(l.KeyBits),
	}
	m.pad = make([]uint64, m.words)
	for i := range m.slots {
		base := l.slotBase(i)
		key := base + 1
		sp := slotPos{
			vw: uint32(base / 64), vs: uint8(base % 64),
			kw: uint32(key / 64), ks: uint8(key % 64),
			kw2: uint32((key + l.KeyBits - 1) / 64),
		}
		if l.Ternary {
			mask := key + l.KeyBits
			sp.mw, sp.ms = uint32(mask/64), uint8(mask%64)
			sp.mw2 = uint32((mask + l.KeyBits - 1) / 64)
		}
		m.slots[i] = sp
	}
	return m
}

// search runs §3.3 steps 2–4 over slots [0, n) of one row — the one
// body behind every Searcher method. The match vector lands in
// res.Vector's backing array (grown only when too small); every other
// field is overwritten. Words of the row beyond its length read as
// zero; words beyond slot n-1 are never read.
func (m *matcher) search(res *Result, row []uint64, search bitutil.Ternary, n int) {
	if cap(res.Vector) < m.vwords {
		res.Vector = make([]uint64, m.vwords)
	} else {
		res.Vector = res.Vector[:m.vwords]
	}
	vec := res.Vector
	if len(row) < m.words {
		k := copy(m.pad, row)
		for i := k; i < len(m.pad); i++ {
			m.pad[i] = 0
		}
		row = m.pad
	}
	slots := m.slots[:max(0, min(n, len(m.slots)))]
	cared := search.Value.AndNot(search.Mask)
	care := m.width.AndNot(search.Mask)
	q := query{careLo: care.Lo, careHi: care.Hi, wantLo: cared.Lo & care.Lo, wantHi: cared.Hi & care.Hi}
	// A cared-for search bit above KeyBits can equal no stored key:
	// every valid slot is still tested, none can match.
	impossible := !cared.AndNot(m.width).IsZero()

	// One vector word — 64 comparators — at a time.
	count, valid := 0, uint64(0)
	for w := range vec {
		chunk := slots[min(w*64, len(slots)):min(w*64+64, len(slots))]
		var hits, v uint64
		switch {
		case !m.layout.Ternary && !m.two:
			hits, v = scanBinary1(row, chunk, &q)
		case !m.layout.Ternary:
			hits, v = scanBinary2(row, chunk, &q)
		case !m.two:
			hits, v = scanTernary1(row, chunk, &q)
		default:
			hits, v = scanTernary2(row, chunk, &q)
		}
		if impossible {
			hits = 0
		}
		vec[w] = hits
		valid += v
		count += bits.OnesCount64(hits)
	}
	res.First, res.Count, res.SlotsTested = PriorityEncode(vec), count, int(valid)
	res.Passes = m.passes
	res.Record = Record{}
	if res.First >= 0 {
		m.record(&res.Record, row, &m.slots[res.First])
	}
}

// record is §3.3 step 4: the matched slot's fields leave the row the
// way the comparator read them (ReadSlot's result, without re-deriving
// the slot's position). rec arrives zeroed.
func (m *matcher) record(rec *Record, row []uint64, p *slotPos) {
	l := &m.layout
	data := int(p.kw)*64 + int(p.ks) + l.KeyBits
	if !m.two {
		rec.Key.Value.Lo = funnel(row, p.kw, p.kw2, p.ks) & m.width.Lo
	} else {
		rec.Key.Value.Lo = funnel(row, p.kw, p.kw+1, p.ks)
		rec.Key.Value.Hi = funnel(row, p.kw+1, p.kw2, p.ks) & m.width.Hi
	}
	if l.Ternary {
		data += l.KeyBits
		if !m.two {
			rec.Key.Mask.Lo = funnel(row, p.mw, p.mw2, p.ms) & m.width.Lo
		} else {
			rec.Key.Mask.Lo = funnel(row, p.mw, p.mw+1, p.ms)
			rec.Key.Mask.Hi = funnel(row, p.mw+1, p.mw2, p.ms) & m.width.Hi
		}
	}
	rec.Data = field128(row, data, l.DataBits)
}

// The four slot loops, over at most 64 slots: they return the slots'
// match bits and how many of them were valid. Each is branch-free per
// slot — how full a row is and which slot holds the key are data no
// predictor learns, and a mispredict costs more than the few operations
// it would skip — and keeps its match bits in a register. The query and
// slot fields go to locals first: read after an atomic load, a field
// behind a pointer would be read again.

// hit is one comparator's verdict: the slot is valid (v) and no
// cared-for bit differs (d == 0).
func hit(v, d uint64) uint64 { return v &^ ((d | -d) >> 63) }

func scanBinary1(row []uint64, slots []slotPos, q *query) (hits, valid uint64) {
	care, want := q.careLo, q.wantLo
	for i, p := range slots {
		v := load(row, p.vw) >> (p.vs & 63) & 1
		valid += v
		hits |= hit(v, funnel(row, p.kw, p.kw2, p.ks)&care^want) << (uint(i) & 63)
	}
	return hits, valid
}

func scanBinary2(row []uint64, slots []slotPos, q *query) (hits, valid uint64) {
	careLo, careHi, wantLo, wantHi := q.careLo, q.careHi, q.wantLo, q.wantHi
	for i, p := range slots {
		v := load(row, p.vw) >> (p.vs & 63) & 1
		d := funnel(row, p.kw, p.kw+1, p.ks)&careLo ^ wantLo
		d |= funnel(row, p.kw+1, p.kw2, p.ks)&careHi ^ wantHi
		valid += v
		hits |= hit(v, d) << (uint(i) & 63)
	}
	return hits, valid
}

func scanTernary1(row []uint64, slots []slotPos, q *query) (hits, valid uint64) {
	care, want := q.careLo, q.wantLo
	for i, p := range slots {
		v := load(row, p.vw) >> (p.vs & 63) & 1
		d := (funnel(row, p.kw, p.kw2, p.ks)&care ^ want) &^ funnel(row, p.mw, p.mw2, p.ms)
		valid += v
		hits |= hit(v, d) << (uint(i) & 63)
	}
	return hits, valid
}

func scanTernary2(row []uint64, slots []slotPos, q *query) (hits, valid uint64) {
	careLo, careHi, wantLo, wantHi := q.careLo, q.careHi, q.wantLo, q.wantHi
	for i, p := range slots {
		v := load(row, p.vw) >> (p.vs & 63) & 1
		d := (funnel(row, p.kw, p.kw+1, p.ks)&careLo ^ wantLo) &^ funnel(row, p.mw, p.mw+1, p.ms)
		d |= (funnel(row, p.kw+1, p.kw2, p.ks)&careHi ^ wantHi) &^ funnel(row, p.mw+1, p.mw2, p.ms)
		valid += v
		hits |= hit(v, d) << (uint(i) & 63)
	}
	return hits, valid
}
