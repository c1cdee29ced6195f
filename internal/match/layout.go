// Package match implements the match-processor side of CA-RAM (§3.1,
// §3.3): how records are laid out inside a memory row, the four-stage
// match pipeline (expand search key, calculate match vector, decode
// match vector, extract result), the Figure 4(b) comparator with both
// don't-care inputs, and the synthesis cost model calibrated against
// the paper's Table 1.
package match

import (
	"fmt"

	"caram/internal/bitutil"
)

// Record is one searchable entry: a (possibly ternary) key plus an
// associated data item. Storing data alongside the key inside CA-RAM is
// the optimization §3.2 highlights as impractical in CAM.
type Record struct {
	Key  bitutil.Ternary
	Data bitutil.Vec128
}

// Layout describes how records are packed into a C-bit row. Each slot
// holds, in order from its base bit: a valid bit, the key value, the
// key mask (ternary layouts only — this is the 2-bits-per-symbol cost
// of ternary storage), and the data field. The auxiliary field of §3.1
// (overflow reach, occupancy) occupies the top AuxBits of the row.
type Layout struct {
	RowBits  int  // C
	KeyBits  int  // N, 1..128
	DataBits int  // 0..128
	Ternary  bool // store an N-bit mask with every key
	AuxBits  int  // top-of-row auxiliary field, 0..64
}

// Validate checks the layout and returns a descriptive error when the
// geometry is impossible.
func (l Layout) Validate() error {
	if l.KeyBits < 1 || l.KeyBits > 128 {
		return fmt.Errorf("match: KeyBits %d outside [1,128]", l.KeyBits)
	}
	if l.DataBits < 0 || l.DataBits > 128 {
		return fmt.Errorf("match: DataBits %d outside [0,128]", l.DataBits)
	}
	if l.AuxBits < 0 || l.AuxBits > 64 {
		return fmt.Errorf("match: AuxBits %d outside [0,64]", l.AuxBits)
	}
	if l.RowBits <= 0 {
		return fmt.Errorf("match: RowBits %d must be positive", l.RowBits)
	}
	if l.Slots() < 1 {
		return fmt.Errorf("match: row of %d bits cannot hold one %d-bit slot plus %d aux bits",
			l.RowBits, l.SlotBits(), l.AuxBits)
	}
	return nil
}

// SlotBits returns the width of one record slot.
func (l Layout) SlotBits() int {
	bits := 1 + l.KeyBits + l.DataBits // valid + key + data
	if l.Ternary {
		bits += l.KeyBits // stored don't-care mask
	}
	return bits
}

// Slots returns S, the number of record slots per row — the paper's
// floor(C/N) generalized to slots carrying valid/mask/data bits.
func (l Layout) Slots() int {
	return (l.RowBits - l.AuxBits) / l.SlotBits()
}

// slotBase returns the bit offset of slot i.
func (l Layout) slotBase(i int) int { return i * l.SlotBits() }

// ReadSlot decodes slot i of a row. ok is false for an empty (invalid)
// slot.
func (l Layout) ReadSlot(row []uint64, i int) (rec Record, ok bool) {
	if !l.SlotValid(row, i) {
		return Record{}, false
	}
	off := l.slotBase(i) + 1
	rec.Key.Value = field128(row, off, l.KeyBits)
	off += l.KeyBits
	if l.Ternary {
		rec.Key.Mask = field128(row, off, l.KeyBits)
		off += l.KeyBits
	}
	rec.Data = field128(row, off, l.DataBits)
	return rec, true
}

// field64 reads n <= 64 bits at bit offset off of the row — GetBits for
// fields of at most one word, without the 128-bit gather. Bits beyond
// the end of the row read as zero. Words are read as the comparators
// read them (load), so a lock-free reader may decode a live row.
func field64(row []uint64, off, n int) uint64 {
	if n <= 0 {
		return 0
	}
	w, s := uint32(uint(off)>>6), uint(off)&63
	var v uint64
	if int(w) < len(row) {
		v = load(row, w) >> s
	}
	if s+uint(n) > 64 && int(w)+1 < len(row) {
		v |= load(row, w+1) << (64 - s)
	}
	return v & (^uint64(0) >> uint(64-n))
}

// field128 reads n <= 128 bits at bit offset off as two field64 halves.
func field128(row []uint64, off, n int) bitutil.Vec128 {
	return bitutil.Vec128{Lo: field64(row, off, min(n, 64)), Hi: field64(row, off+64, n-64)}
}

// setField64 stores the low n <= 64 bits of v at bit offset off of the
// row — field64's inverse, and SetBits for fields of at most one word
// without the 128-bit scatter. Bits beyond the end of the row are
// dropped.
func setField64(row []uint64, off, n int, v uint64) {
	if n <= 0 {
		return
	}
	w, s := int(uint(off)>>6), uint(off)&63
	mask := ^uint64(0) >> uint(64-n)
	v &= mask
	if w < len(row) {
		row[w] = row[w]&^(mask<<s) | v<<s
	}
	if s+uint(n) > 64 && w+1 < len(row) {
		row[w+1] = row[w+1]&^(mask>>(64-s)) | v>>(64-s)
	}
}

// setField128 stores n <= 128 bits at bit offset off as two setField64
// halves.
func setField128(row []uint64, off, n int, v bitutil.Vec128) {
	setField64(row, off, min(n, 64), v.Lo)
	setField64(row, off+64, n-64, v.Hi)
}

// WriteSlot encodes rec into slot i of a row and marks it valid. A
// non-empty mask on a binary (non-ternary) layout is rejected, because
// the row has no bits to store it.
func (l Layout) WriteSlot(row []uint64, i int, rec Record) error {
	if !l.Ternary && !rec.Key.Mask.IsZero() {
		return fmt.Errorf("match: ternary key in a binary layout")
	}
	off := l.slotBase(i)
	setField64(row, off, 1, 1)
	off++
	setField128(row, off, l.KeyBits, rec.Key.Value.AndNot(rec.Key.Mask))
	off += l.KeyBits
	if l.Ternary {
		setField128(row, off, l.KeyBits, rec.Key.Mask)
		off += l.KeyBits
	}
	setField128(row, off, l.DataBits, rec.Data)
	return nil
}

// ClearSlot invalidates slot i (its stale key/data bits are zeroed too,
// so RAM-mode dumps stay clean).
func (l Layout) ClearSlot(row []uint64, i int) {
	for off, end := l.slotBase(i), l.slotBase(i+1); off < end; off += 64 {
		setField64(row, off, min(end-off, 64), 0)
	}
}

// SlotValid reports whether slot i holds a record.
func (l Layout) SlotValid(row []uint64, i int) bool {
	base := uint(l.slotBase(i))
	return int(base>>6) < len(row) && load(row, uint32(base>>6))>>(base&63)&1 == 1
}

// UsedSlots returns 1 + the index of the row's highest valid slot (0
// for an empty row): every slot from there up is empty, so a search or
// scan bounded to [0, UsedSlots) sees every record the row stores.
func (l Layout) UsedSlots(row []uint64) int {
	n := l.Slots()
	for n > 0 && !l.SlotValid(row, n-1) {
		n--
	}
	return n
}

// ReadAux returns the row's auxiliary field (0 when AuxBits is 0).
func (l Layout) ReadAux(row []uint64) uint64 {
	return field64(row, l.RowBits-l.AuxBits, l.AuxBits)
}

// WriteAux stores v into the row's auxiliary field, truncated to
// AuxBits.
func (l Layout) WriteAux(row []uint64, v uint64) {
	setField64(row, l.RowBits-l.AuxBits, l.AuxBits, v)
}

// OccupiedSlots counts valid slots in the row.
func (l Layout) OccupiedSlots(row []uint64) int {
	n := 0
	for i := 0; i < l.Slots(); i++ {
		if l.SlotValid(row, i) {
			n++
		}
	}
	return n
}
