package server

import (
	"encoding/binary"
	"strconv"

	"caram/internal/bitutil"
	"caram/internal/wire"
)

// Append-based reply encoding. Every response the server emits is built
// by appending into a caller-supplied byte buffer (per-connection,
// pooled by Handle), replacing the fmt.Sprintf/strings.Builder
// formatting of the original protocol engine. The encoders below are
// byte-compatible with the fmt verbs they replace — the golden session
// test holds the wire format to the old output exactly.

// appendHex016 appends v as exactly 16 lower-case hex digits (fmt's
// %016x), eight at a time.
func appendHex016(dst []byte, v uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, hexDigits8(uint32(v>>32)))
	return binary.BigEndian.AppendUint64(dst, hexDigits8(uint32(v)))
}

// hexDigits8 spreads the eight nibbles of v over the bytes of a word, the
// top nibble in the top byte, and turns each into its lower-case ASCII
// digit: '0' plus the nibble, plus 'a'-'0'-10 more for one above 9.
func hexDigits8(v uint32) uint64 {
	const ones = 0x0101010101010101
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & (0x0f * ones)
	above9 := (x + 6*ones) >> 4 & ones
	return x + '0'*ones + above9*('a'-'0'-10)
}

// appendUint appends v in decimal (fmt's %d for unsigned).
func appendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// appendInt appends v in decimal (fmt's %d).
func appendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// appendKV appends " key=" and v in decimal: one field of a "k=v" reply.
func appendKV[T int | int32 | int64 | uint32 | uint64](dst []byte, key string, v T) []byte {
	dst = append(append(append(dst, ' '), key...), '=')
	if v < 0 {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendUint(dst, uint64(v), 10)
}

// appendKVf is appendKV for a value printed with prec decimals (fmt's
// %.<prec>f, including its NaN/±Inf spellings).
func appendKVf(dst []byte, key string, v float64, prec int) []byte {
	dst = append(append(append(dst, ' '), key...), '=')
	return strconv.AppendFloat(dst, v, 'f', prec, 64)
}

// appendErr appends "ERR " plus the error text.
func appendErr(dst []byte, err error) []byte {
	dst = append(dst, "ERR "...)
	return append(dst, err.Error()...)
}

// appendUsage appends the malformed-request reply of a verb: its
// protocol box line, from the table.
func appendUsage(dst []byte, v *wire.Verb) []byte {
	return append(append(dst, "ERR usage: "...), v.Usage...)
}

// appendBadHex appends the reply to a key wire.ParseVec rejected.
func appendBadHex(dst []byte, field string) []byte {
	return strconv.AppendQuote(append(dst, "ERR bad hex "...), field)
}

// parseKey parses a search key and the mask that may follow it ("" for
// none) into the ternary the engines match on; bad is the field
// wire.ParseVec rejected, "" when both parsed.
func parseKey(keyS, maskS string) (search bitutil.Ternary, bad string) {
	key, ok := wire.ParseVec(keyS)
	if !ok {
		return search, keyS
	}
	if maskS == "" {
		return bitutil.Exact(key), ""
	}
	mask, ok := wire.ParseVec(maskS)
	if !ok {
		return search, maskS
	}
	return bitutil.NewTernary(key, mask), ""
}

// appendSearchReply appends a lookup's outcome: "MISS", "MISS!" — the
// lookup skipped a quarantined or unreadable row, so the key may well be
// stored and this is the explicit miss-with-error, not a clean miss —
// or "HIT", sep, and the data as <hi>:<lo>. sep is ' ' for a SEARCH or
// TSEARCH reply and ':' for an MRESULTS slot.
func appendSearchReply(dst []byte, found, erred bool, data bitutil.Vec128, sep byte) []byte {
	switch {
	case !found && erred:
		return append(dst, wire.ReplyMissErr...)
	case !found:
		return append(dst, wire.ReplyMiss...)
	}
	dst = append(append(dst, wire.ReplyHit...), sep)
	dst = strconv.AppendUint(dst, data.Hi, 16) // fmt's %x
	dst = append(dst, ':')
	return appendHex016(dst, data.Lo)
}
