package cluster

import (
	"bytes"
	"strconv"
	"unicode"
	"unicode/utf8"

	"caram/internal/bitutil"
	"caram/internal/server"
)

// asciiSpace mirrors the server scanner's fast path: the six ASCII
// bytes unicode.IsSpace accepts.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// bscan is the []byte twin of server.FieldScanner — the same
// unicode.IsSpace separator set over the raw request line, so the
// router tokenizes exactly the fields the backend will, without the
// string conversion (and its allocation) on the forward path.
type bscan struct {
	b []byte
	i int
}

// next returns the next field, or ok=false at end of line.
func (s *bscan) next() (field []byte, ok bool) {
	b, i := s.b, s.i
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 0 {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	if i >= len(b) {
		s.i = i
		return nil, false
	}
	start := i
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 1 {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += w
	}
	s.i = i
	return b[start:i], true
}

// count returns how many fields remain without advancing the scanner.
func (s *bscan) count() int {
	c := *s
	n := 0
	for {
		if _, ok := c.next(); !ok {
			return n
		}
		n++
	}
}

// eqFold reports ASCII-case-insensitive equality — how the router
// recognizes command words (the server uppercases them the same way).
func eqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		cb, cs := b[i], s[i]
		if 'a' <= cb && cb <= 'z' {
			cb -= 'a' - 'A'
		}
		if 'a' <= cs && cs <= 'z' {
			cs -= 'a' - 'A'
		}
		if cb != cs {
			return false
		}
	}
	return true
}

// hasPrefix is bytes.HasPrefix against a constant without the
// []byte conversion.
func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// tokenEq reports that the reply's first token is exactly s — "OK"
// matches "OK" and "OK scrub ...", but not "OKAY" or "MISS!" via
// "MISS".
func tokenEq(b []byte, s string) bool {
	if !hasPrefix(b, s) {
		return false
	}
	return len(b) == len(s) || b[len(s)] == ' '
}

// firstToken returns the reply's first space-separated token and the
// byte offset just past it (for cursor-style resumption).
func firstToken(b []byte) (tok []byte, rest int) {
	return tokenAt(b, 0)
}

// tokenAt returns the next space-separated token at or after off and
// the offset just past it; a nil token means the reply is exhausted.
// Replies are server-rendered (single ASCII spaces), so ASCII space
// handling suffices here.
func tokenAt(b []byte, off int) (tok []byte, rest int) {
	i := off
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	if i >= len(b) {
		return nil, i
	}
	start := i
	for i < len(b) && b[i] != ' ' && b[i] != '\t' {
		i++
	}
	return b[start:i], i
}

// splitKV splits a "key=value" reply field.
func splitKV(pair []byte) (k, v []byte, ok bool) {
	i := bytes.IndexByte(pair, '=')
	if i < 0 {
		return nil, nil, false
	}
	return pair[:i], pair[i+1:], true
}

// nextKV returns the next "key=value" field of a reply, skipping
// fields that are not pairs; ok=false at end of line.
func (s *bscan) nextKV() (k, v []byte, ok bool) {
	for {
		pair, more := s.next()
		if !more {
			return nil, nil, false
		}
		if k, v, ok = splitKV(pair); ok {
			return k, v, true
		}
	}
}

// splitSlash splits an "a/b" reply field (overflow occupancy).
func splitSlash(v []byte) (a, b []byte, ok bool) {
	i := bytes.IndexByte(v, '/')
	if i < 0 {
		return nil, nil, false
	}
	return v[:i], v[i+1:], true
}

// parseInt reads a decimal integer leniently (merge inputs are
// server-rendered; garbage parses as far as it goes).
func parseInt(b []byte) int64 {
	neg := false
	i := 0
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	var v int64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if neg {
		return -v
	}
	return v
}

// parseFloat reads a float reply field (STATS merge — not a hot path).
func parseFloat(b []byte) float64 {
	f, _ := strconv.ParseFloat(string(b), 64)
	return f
}

// parseVecBytes parses a wire key — "<lo>" or "<hi>:<lo>" — into its
// canonical 128-bit value, mirroring the server's parseVec so every
// spelling of a key routes to the owner of its value. ok=false means
// the backend will reject the key too; the router then just anchors
// the line somewhere deterministic and lets the backend say so.
func parseVecBytes(b []byte) (bitutil.Vec128, bool) {
	if i := bytes.IndexByte(b, ':'); i >= 0 {
		hi, ok1 := server.ParseHex64(b[:i])
		lo, ok2 := server.ParseHex64(b[i+1:])
		if !ok1 || !ok2 {
			return bitutil.Vec128{}, false
		}
		return bitutil.FromParts(lo, hi), true
	}
	lo, ok := server.ParseHex64(b)
	if !ok {
		return bitutil.Vec128{}, false
	}
	return bitutil.FromUint64(lo), true
}
