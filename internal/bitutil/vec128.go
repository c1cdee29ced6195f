// Package bitutil provides the low-level bit machinery of the CA-RAM
// simulator: fixed 128-bit vectors used for search keys, ternary
// (value + don't-care mask) keys, and helpers for reading and writing
// arbitrary bit fields inside raw memory rows.
//
// The CA-RAM prototype in the paper supports key sizes of 1, 2, 3, 4,
// 6, 8, 12 and 16 bytes; 128 bits is therefore the widest key any part
// of the design must carry, and Vec128 is sized accordingly.
package bitutil

import (
	"fmt"
	"math/bits"
)

// Vec128 is a 128-bit vector. Bit 0 is the least-significant bit of Lo;
// bit 127 is the most-significant bit of Hi. The zero value is the
// all-zero vector, ready to use.
type Vec128 struct {
	Lo, Hi uint64
}

// FromUint64 returns a vector holding v in its low 64 bits.
func FromUint64(v uint64) Vec128 { return Vec128{Lo: v} }

// FromParts returns a vector from explicit low and high words.
func FromParts(lo, hi uint64) Vec128 { return Vec128{Lo: lo, Hi: hi} }

// Mask returns a vector with the low width bits set. Width outside
// [0, 128] is clamped.
func Mask(width int) Vec128 {
	switch {
	case width <= 0:
		return Vec128{}
	case width >= 128:
		return Vec128{Lo: ^uint64(0), Hi: ^uint64(0)}
	case width >= 64:
		return Vec128{Lo: ^uint64(0), Hi: (uint64(1) << (width - 64)) - 1}
	default:
		return Vec128{Lo: (uint64(1) << width) - 1}
	}
}

// And returns v & w.
func (v Vec128) And(w Vec128) Vec128 { return Vec128{v.Lo & w.Lo, v.Hi & w.Hi} }

// Or returns v | w.
func (v Vec128) Or(w Vec128) Vec128 { return Vec128{v.Lo | w.Lo, v.Hi | w.Hi} }

// Xor returns v ^ w.
func (v Vec128) Xor(w Vec128) Vec128 { return Vec128{v.Lo ^ w.Lo, v.Hi ^ w.Hi} }

// AndNot returns v &^ w.
func (v Vec128) AndNot(w Vec128) Vec128 { return Vec128{v.Lo &^ w.Lo, v.Hi &^ w.Hi} }

// Not returns the complement of v truncated to width bits.
func (v Vec128) Not(width int) Vec128 {
	m := Mask(width)
	return Vec128{^v.Lo & m.Lo, ^v.Hi & m.Hi}
}

// Trunc returns v truncated to its low width bits.
func (v Vec128) Trunc(width int) Vec128 {
	m := Mask(width)
	return v.And(m)
}

// IsZero reports whether every bit of v is zero.
func (v Vec128) IsZero() bool { return v.Lo == 0 && v.Hi == 0 }

// Bit returns bit i of v (0 or 1). Bits outside [0, 128) read as zero.
func (v Vec128) Bit(i int) uint {
	switch {
	case i < 0 || i >= 128:
		return 0
	case i < 64:
		return uint(v.Lo>>i) & 1
	default:
		return uint(v.Hi>>(i-64)) & 1
	}
}

// WithBit returns a copy of v with bit i set to b. Bits outside
// [0, 128) are ignored.
func (v Vec128) WithBit(i int, b uint) Vec128 {
	if i < 0 || i >= 128 {
		return v
	}
	if i < 64 {
		v.Lo = v.Lo&^(uint64(1)<<i) | uint64(b&1)<<i
	} else {
		v.Hi = v.Hi&^(uint64(1)<<(i-64)) | uint64(b&1)<<(i-64)
	}
	return v
}

// Shl returns v shifted left by n bits. Shifts of 128 or more yield zero.
func (v Vec128) Shl(n int) Vec128 {
	switch {
	case n <= 0:
		return v
	case n >= 128:
		return Vec128{}
	case n >= 64:
		return Vec128{Lo: 0, Hi: v.Lo << (n - 64)}
	default:
		return Vec128{Lo: v.Lo << n, Hi: v.Hi<<n | v.Lo>>(64-n)}
	}
}

// Shr returns v shifted right by n bits. Shifts of 128 or more yield zero.
func (v Vec128) Shr(n int) Vec128 {
	switch {
	case n <= 0:
		return v
	case n >= 128:
		return Vec128{}
	case n >= 64:
		return Vec128{Lo: v.Hi >> (n - 64), Hi: 0}
	default:
		return Vec128{Lo: v.Lo>>n | v.Hi<<(64-n), Hi: v.Hi >> n}
	}
}

// OnesCount returns the number of set bits in v.
func (v Vec128) OnesCount() int {
	return bits.OnesCount64(v.Lo) + bits.OnesCount64(v.Hi)
}

// Uint64 returns the low 64 bits of v.
func (v Vec128) Uint64() uint64 { return v.Lo }

// FromBytes builds a vector from big-endian bytes: b[0] holds the most
// significant bits. At most 16 bytes are consumed; the resulting width
// is 8*len(b).
func FromBytes(b []byte) Vec128 {
	if len(b) > 16 {
		b = b[len(b)-16:]
	}
	var v Vec128
	for _, c := range b {
		v = v.Shl(8)
		v.Lo |= uint64(c)
	}
	return v
}

// FromString builds a vector from the raw bytes of s (big-endian, as
// FromBytes). Handy for string keys such as trigrams.
func FromString(s string) Vec128 { return FromBytes([]byte(s)) }

// Bytes returns v as big-endian bytes spanning width bits (rounded up to
// whole bytes).
func (v Vec128) Bytes(width int) []byte {
	n := (width + 7) / 8
	if n > 16 {
		n = 16
	}
	out := make([]byte, n)
	w := v
	for i := n - 1; i >= 0; i-- {
		out[i] = byte(w.Lo)
		w = w.Shr(8)
	}
	return out
}

// String renders v as 0x-prefixed hexadecimal.
func (v Vec128) String() string {
	if v.Hi == 0 {
		return fmt.Sprintf("0x%x", v.Lo)
	}
	return fmt.Sprintf("0x%x%016x", v.Hi, v.Lo)
}
