package wire

import (
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

// hexVal maps a byte to its hex digit value; anything above 15 is not
// a hex digit. A table, not range tests: in a random key the next digit
// is a letter or a figure unpredictably, and that branch mispredicts.
var hexVal = func() (t [256]uint8) {
	for i := range t {
		t[i] = 0xff
	}
	for i := 0; i < 10; i++ {
		t['0'+i] = uint8(i)
	}
	for i := 0; i < 6; i++ {
		t['a'+i], t['A'+i] = uint8(10+i), uint8(10+i)
	}
	return t
}()

// ParseHex64 parses one bare hex field: 1+ hex digits (leading zeros
// allowed) whose value fits 64 bits, and nothing else — the exact set
// strconv.ParseUint(s, 16, 64) accepts, so empty fields, signs, "0x"
// prefixes, "_" separators and trailing garbage like "12zz" are all
// rejected (FuzzParseHex64 holds it to strconv).
func ParseHex64(s string) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := hexVal[s[i]]
		if d > 15 || v >= 1<<60 { // not a digit, or v<<4 would overflow
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// ParseVec parses a wire key — "hi:lo" or plain hex, each part a
// ParseHex64 field. The server stores under the value and the router
// hashes the value onto its ring, so "dead", "0:dead" and
// "0:000000000000dead" are one key on one backend. ok=false is the
// server's "ERR bad hex".
func ParseVec(s string) (bitutil.Vec128, bool) {
	hiS, loS, wide := strings.Cut(s, ":")
	if !wide {
		hiS, loS = "0", hiS
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
