package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"caram/internal/bitutil"
)

// MaxLineBytes bounds one request (or reply) line. Longer lines are
// rejected with "ERR line too long".
const MaxLineBytes = 64 * 1024

// View presents a line as a string without copying it. The view aliases
// b and is valid only as long as b's bytes are — for a connection's
// read buffer, until the next read (see "Field lifetime" in the package
// comment).
func View(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// TrimEOL strips a line's terminator (and a final "\r", as
// text-protocol clients send "\r\n").
func TrimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// asciiSpace marks the six ASCII bytes unicode.IsSpace accepts, the
// fast path of the field scanner.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// Scanner iterates the whitespace-separated fields of a request or
// reply line without allocating — the streaming equivalent of
// strings.Fields (same unicode.IsSpace separator set), yielding
// substrings of the input.
type Scanner struct {
	s string
	i int
}

// Scan returns a scanner over one line.
func Scan(line string) Scanner { return Scanner{s: line} }

// Next returns the next field, or ok=false at end of line.
func (f *Scanner) Next() (field string, ok bool) {
	s, i := f.s, f.i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 0 {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	if i >= len(s) {
		f.i = i
		return "", false
	}
	start := i
	// Eight bytes a step while every one is printable ASCII — no byte
	// below '!' (every ASCII space is) and none at or above RuneSelf —
	// then byte by byte from the word that holds the field's end.
	for i+8 <= len(s) {
		if w := load8(s[i:]); (w-0x2121212121212121|w)&0x8080808080808080 != 0 {
			break
		}
		i += 8
	}
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 1 {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += w
	}
	f.i = i
	return s[start:i], true
}

// Rest returns everything left of the line with surrounding whitespace
// trimmed, consuming the scanner — the free-text tail of a request
// (trigram texts may contain spaces).
func (f *Scanner) Rest() string {
	out := strings.TrimSpace(f.s[f.i:])
	f.i = len(f.s)
	return out
}

// Count returns how many fields remain without advancing the scanner.
func (f *Scanner) Count() int {
	c := *f
	n := 0
	for {
		if _, ok := c.Next(); !ok {
			return n
		}
		n++
	}
}

// Fill scans the next fields into a and returns how many there were
// (at most len(a)).
func (f *Scanner) Fill(a []string) int {
	for i := range a {
		var ok bool
		if a[i], ok = f.Next(); !ok {
			return i
		}
	}
	return len(a)
}

// NextKV returns the next "key=value" field of a reply, skipping fields
// that are not pairs; ok=false at end of line.
func (f *Scanner) NextKV() (k, v string, ok bool) {
	for {
		pair, more := f.Next()
		if !more {
			return "", "", false
		}
		if k, v, ok = strings.Cut(pair, "="); ok {
			return k, v, true
		}
	}
}

// EqualFold is the protocol's case-insensitive comparison: verbs and
// keywords are ASCII by construction.
func EqualFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c, d := s[i], t[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if d >= 'a' && d <= 'z' {
			d -= 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// ParseHex64 parses one bare hex field: 1+ hex digits (leading zeros
// allowed) whose value fits 64 bits, and nothing else — the exact set
// strconv.ParseUint(s, 16, 64) accepts, so empty fields, signs, "0x"
// prefixes, "_" separators and trailing garbage like "12zz" are all
// rejected (FuzzParseHex64 holds it to strconv). A rejected field
// yields 0. Digits are judged and converted eight at a time (hexWord).
func ParseHex64(s string) (uint64, bool) {
	for len(s) > 16 && s[0] == '0' {
		s = s[1:] // past 16 digits a field fits only by leading zeros
	}
	var v, bad uint64
	switch n := len(s); {
	case n == 0 || n > 16:
		return 0, false
	case n < 8:
		x := uint64(0x3030303030303030) // '0's pad the word on the left
		for i := 0; i < n; i++ {
			x = x<<8 | uint64(s[i])
		}
		v, bad = hexWord(x)
	default:
		// Two words; when n < 16 they overlap, and the digits they share
		// land on the same bits of the value.
		hi, bad1 := hexWord(load8(s))
		lo, bad2 := hexWord(load8(s[n-8:]))
		v, bad = hi<<(4*(n-8))|lo, bad1|bad2
	}
	if bad != 0 {
		return 0, false
	}
	return v, true
}

// load8 reads the first eight bytes of s, the first in the top byte.
func load8(s string) uint64 {
	return binary.BigEndian.Uint64(unsafe.Slice(unsafe.StringData(s), 8))
}

// hexWord converts the eight bytes of x, read as hex digits, to the
// 32-bit value they spell, the top byte's digit on top; bad is nonzero
// unless all eight are digits. Branch-free (SWAR): which bytes are
// letters and which figures is data no predictor learns.
func hexWord(x uint64) (v, bad uint64) {
	const ones = 0x0101010101010101
	// A byte's high bit is set iff lo <= b <= hi. A digit byte never
	// carries into the next, so the lowest non-digit is judged exactly,
	// and fails (a byte at or above 0x80 included); a carry it sends up
	// can misjudge only bytes of a word that is bad already.
	in := func(x, lo, hi uint64) uint64 { return (x + (0x80-lo)*ones) &^ (x + (0x7f-hi)*ones) }
	digit := in(x, '0', '9') | in(x|0x20*ones, 'a', 'f') // |0x20 folds 'A'-'F' onto 'a'-'f'
	// A digit's value is its low nibble, plus 9 for a letter (bit 6);
	// then the eight nibbles pack.
	d := x&(0x0f*ones) + (x>>6&ones)*9
	d = (d | d>>4) & 0x00ff00ff00ff00ff
	d = (d | d>>8) & 0x0000ffff0000ffff
	return (d | d>>16) & 0xffffffff, ^digit & (0x80 * ones)
}

// ParseVec parses a wire key — "hi:lo" or plain hex, each part a
// ParseHex64 field. The server stores under the value and the router
// hashes the value onto its ring, so "dead", "0:dead" and
// "0:000000000000dead" are one key on one backend. ok=false is the
// server's "ERR bad hex".
func ParseVec(s string) (bitutil.Vec128, bool) {
	hiS, loS, wide := strings.Cut(s, ":")
	if !wide { // the high half is 0; a rejected field is 0 too
		lo, ok := ParseHex64(s)
		return bitutil.FromParts(lo, 0), ok
	}
	hi, ok1 := ParseHex64(hiS)
	lo, ok2 := ParseHex64(loS)
	if !ok1 || !ok2 {
		return bitutil.Vec128{}, false
	}
	return bitutil.FromParts(lo, hi), true
}

// ParseWireID parses the "<hex-id>[/<span-id>]" operand of the *TID
// annotation and of TRACE GET: a 64-bit hex trace id, optionally
// followed by a slash and a decimal span id.
func ParseWireID(s string) (tid uint64, span uint32, ok bool) {
	idS, spanS, hasSpan := strings.Cut(s, "/")
	if hasSpan {
		var v uint64
		for i := 0; i < len(spanS) && v <= math.MaxUint32; i++ {
			d := spanS[i] - '0'
			if d > 9 {
				return 0, 0, false
			}
			v = v*10 + uint64(d)
		}
		if spanS == "" || v > math.MaxUint32 {
			return 0, 0, false
		}
		span = uint32(v)
	}
	tid, ok = ParseHex64(idS)
	return tid, span, ok
}
