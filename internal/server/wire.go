package server

// Wire-shape helpers shared with the cluster router (internal/cluster).
//
// The router speaks this package's protocol on both of its sides: it
// parses just enough of each request line to pick a backend, forwards
// the raw bytes, and reassembles multi-backend replies (MSEARCH
// scatter/gather, STATS aggregation) out of single-backend ones. The
// exported surface below is what reassembly needs — the field scanner
// and key parser the server itself routes with, and the reply tokens
// whose exact spelling is the compatibility contract — so the router
// can never drift from the server's own grammar.

// Reply tokens of the wire protocol. MRESULTS slots use the Slot*
// spellings; single SEARCH replies use the bare forms. The router's
// reassembly code compares against these constants instead of
// respelling them.
const (
	ReplyOK       = "OK"
	ReplyMiss     = "MISS"
	ReplyMissErr  = "MISS!" // explicit miss-with-error (quarantined/unreadable row)
	ReplyMResults = "MRESULTS"

	SlotHitPrefix   = "HIT:"
	SlotNoEngine    = "ERR:no-engine"
	SlotUnavailable = "ERR:unavailable"
)

// Next returns the next whitespace-separated field of the line, or
// ok=false at end of line. The exported form of the scanner the
// protocol engine itself uses; fields are substrings of the input and
// never allocate.
func (f *FieldScanner) Next() (field string, ok bool) { return f.next() }

// CountFields returns how many fields remain without advancing the
// scanner.
func (f *FieldScanner) CountFields() int { return f.countFields() }

// NewFieldScanner returns a scanner over one request (or reply) line.
func NewFieldScanner(line string) FieldScanner { return FieldScanner{s: line} }

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
// rejected. One digit loop serves the server's string fields and the
// router's byte fields alike (FuzzParseHex64 holds it to strconv).
func ParseHex64[S string | []byte](s S) (uint64, bool) {
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

// ParseVec parses a wire key — "hi:lo" or plain hex, each part 1+ hex
// digits fitting 64 bits with nothing else — exactly as the protocol engine does
// (trailing garbage, signs, and "0x" prefixes are all rejected). The
// router canonicalizes keys through this before hashing them onto the
// ring, so "dead", "0:dead" and "0:000000000000dead" route to the same
// backend the server would treat as the same key.
func ParseVec(s string) (v [2]uint64, err error) {
	vec, err := parseVec(s)
	if err != nil {
		return v, err
	}
	return [2]uint64{vec.Lo, vec.Hi}, nil
}
