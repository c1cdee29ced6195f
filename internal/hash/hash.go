// Package hash implements the index generators of CA-RAM (§3.1): the
// small block of logic that maps an N-bit search key to an R-bit row
// index. The paper notes that index generation ranges from plain bit
// selection (IP lookup, §4.1) to string hashing (the DJB hash used for
// trigram lookup, §4.2); this package provides both, plus the greedy
// hash-bit chooser of Zane et al. used to pick the selected bits, and a
// couple of generic generators useful for ablations.
package hash

import (
	"fmt"

	"caram/internal/bitutil"
)

// IndexGenerator turns a search key into a row index in [0, 2^Bits()).
// Implementations must be deterministic and safe for concurrent use.
type IndexGenerator interface {
	// Index returns the row index for key.
	Index(key bitutil.Vec128) uint32
	// Bits returns R, the width of the produced index.
	Bits() int
	// Name identifies the generator in reports.
	Name() string
}

// BitSelect extracts a fixed set of key bit positions and concatenates
// them into an index — the cheapest possible index generator, and the
// one the paper uses for IP lookup. Positions[0] becomes the least
// significant index bit.
type BitSelect struct {
	Positions []int
}

// NewBitSelect returns a bit-selection generator over the given key bit
// positions. It panics if more than 32 positions are supplied (the
// index is a uint32) or if any position is out of [0, 128).
func NewBitSelect(positions []int) *BitSelect {
	if len(positions) > 32 {
		panic(fmt.Sprintf("hash: BitSelect with %d positions", len(positions)))
	}
	for _, p := range positions {
		if p < 0 || p >= 128 {
			panic(fmt.Sprintf("hash: BitSelect position %d out of range", p))
		}
	}
	return &BitSelect{Positions: append([]int(nil), positions...)}
}

// Index assembles the selected key bits into an index.
func (b *BitSelect) Index(key bitutil.Vec128) uint32 {
	var idx uint32
	for i, p := range b.Positions {
		idx |= uint32(key.Bit(p)) << uint(i)
	}
	return idx
}

// Bits returns the number of selected positions.
func (b *BitSelect) Bits() int { return len(b.Positions) }

// Name identifies the generator.
func (b *BitSelect) Name() string { return fmt.Sprintf("bitselect%v", b.Positions) }

// TernaryIndices returns every row index a ternary key hashes to. A
// stored key with n don't-care bits in the selected positions must be
// duplicated into 2^n buckets to preserve don't-care semantics (§4);
// the returned slice has exactly that length and is sorted.
func (b *BitSelect) TernaryIndices(key bitutil.Ternary) []uint32 {
	return b.AppendTernaryIndices(nil, key)
}

// AppendTernaryIndices appends TernaryIndices(key) to dst and returns
// the extended slice, so that a caller holding a scratch slice allocates
// nothing.
func (b *BitSelect) AppendTernaryIndices(dst []uint32, key bitutil.Ternary) []uint32 {
	var wild uint32 // the index bits that are don't care
	for i, p := range b.Positions {
		wild |= uint32(key.Mask.Bit(p)) << uint(i)
	}
	base := b.Index(key.Value) &^ wild
	// (sub - wild) & wild is the next subset of wild after sub, in
	// ascending order: the indices come out sorted.
	for sub := uint32(0); ; sub = (sub - wild) & wild {
		dst = append(dst, base|sub)
		if sub == wild {
			return dst
		}
	}
}

// DuplicationFactor returns how many buckets the key occupies (2^n for n
// don't-care bits in the selected positions) without materializing them.
func (b *BitSelect) DuplicationFactor(key bitutil.Ternary) int {
	n := 0
	for _, p := range b.Positions {
		if key.Mask.Bit(p) == 1 {
			n++
		}
	}
	return 1 << uint(n)
}

// LowBits returns a generator that uses the low r bits of the key —
// the degenerate bit selection, useful as a baseline.
func LowBits(r int) *BitSelect {
	pos := make([]int, r)
	for i := range pos {
		pos[i] = i
	}
	return NewBitSelect(pos)
}

// djbSeed is the classic starting value of the DJB string hash.
const djbSeed = 5381

// DJBBytes computes the DJB hash over raw bytes:
// hash(i) = (hash(i-1) << 5) + hash(i-1) + b[i], seeded with 5381.
// This is the exact recurrence quoted in §4.2.
func DJBBytes(b []byte) uint64 {
	h := uint64(djbSeed)
	for _, c := range b {
		h = h<<5 + h + uint64(c)
	}
	return h
}

// DJBString computes the DJB hash of a string without allocating.
func DJBString(s string) uint64 {
	h := uint64(djbSeed)
	for i := 0; i < len(s); i++ {
		h = h<<5 + h + uint64(s[i])
	}
	return h
}

// DJB is an IndexGenerator applying the DJB string hash to the key's
// big-endian byte image — the generator of the trigram study.
type DJB struct {
	R        int // index bits
	KeyBytes int // how many bytes of the key participate
}

// NewDJB returns a DJB index generator producing r-bit indices over
// keyBytes-byte keys.
func NewDJB(r, keyBytes int) *DJB { return &DJB{R: r, KeyBytes: keyBytes} }

// Index hashes the key bytes and keeps the low R bits. It walks the
// key's big-endian byte image in place — same values as
// DJBBytes(key.Bytes(...)) without materializing the slice, keeping
// trigram-engine searches allocation-free.
func (d *DJB) Index(key bitutil.Vec128) uint32 {
	n := d.KeyBytes
	if n > 16 {
		n = 16
	}
	h := uint64(djbSeed)
	for i := n - 1; i >= 0; i-- { // i = byte position from the LSB; MSB first
		var b byte
		if i < 8 {
			b = byte(key.Lo >> (8 * uint(i)))
		} else {
			b = byte(key.Hi >> (8 * uint(i-8)))
		}
		h = h<<5 + h + uint64(b)
	}
	return uint32(h) & (1<<uint(d.R) - 1)
}

// Bits returns the index width.
func (d *DJB) Bits() int { return d.R }

// Name identifies the generator.
func (d *DJB) Name() string { return fmt.Sprintf("djb/%dB", d.KeyBytes) }

// MultShift is a universal multiply-shift generator: (a*lo ^ b*hi) taken
// from the top R bits. It serves as the "simple arithmetic" index
// generator of §3.1 and as an ablation point against bit selection.
type MultShift struct {
	R    int
	A, B uint64
}

// NewMultShift returns a multiply-shift generator with fixed, odd
// multipliers (deterministic across runs).
func NewMultShift(r int) *MultShift {
	return &MultShift{R: r, A: 0x9e3779b97f4a7c15, B: 0xc2b2ae3d27d4eb4f}
}

// Index mixes both key words and keeps the top R bits of the product.
func (m *MultShift) Index(key bitutil.Vec128) uint32 {
	h := m.A*key.Lo ^ m.B*key.Hi
	h ^= h >> 29
	h *= m.A
	return uint32(h >> (64 - uint(m.R)))
}

// Bits returns the index width.
func (m *MultShift) Bits() int { return m.R }

// Name identifies the generator.
func (m *MultShift) Name() string { return fmt.Sprintf("multshift/%d", m.R) }

// XorFold folds the whole key into R bits by XORing R-bit chunks — a
// middle ground between bit selection and true hashing.
type XorFold struct {
	R        int
	KeyWidth int
}

// NewXorFold returns an R-bit xor-folding generator over keyWidth-bit keys.
func NewXorFold(r, keyWidth int) *XorFold { return &XorFold{R: r, KeyWidth: keyWidth} }

// Index xor-folds the key.
func (x *XorFold) Index(key bitutil.Vec128) uint32 {
	var h uint32
	k := key.Trunc(x.KeyWidth)
	for off := 0; off < x.KeyWidth; off += x.R {
		h ^= uint32(k.Shr(off).Trunc(x.R).Uint64())
	}
	return h & (1<<uint(x.R) - 1)
}

// Bits returns the index width.
func (x *XorFold) Bits() int { return x.R }

// Name identifies the generator.
func (x *XorFold) Name() string { return fmt.Sprintf("xorfold/%d", x.R) }
