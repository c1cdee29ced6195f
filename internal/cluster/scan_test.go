package cluster

import (
	"strconv"
	"testing"

	"caram/internal/server"
)

// TestBScanMatchesFieldScanner: the router's []byte tokenizer must
// split a request line into exactly the fields the backend's scanner
// will — otherwise routing decisions and backend parsing could
// diverge on exotic whitespace.
func TestBScanMatchesFieldScanner(t *testing.T) {
	lines := []string{
		"SEARCH db dead",
		"  SEARCH\tdb\tdead  ",
		"",
		"   ",
		"one",
		"a b c d e f",
		"unicode space",     // NBSP is a separator to unicode.IsSpace
		"wide　ideographic ", // ideographic space, line separator
		"trailing ",
		" leading",
		"mixed  \t x",
		"utf8-in-field héllo wörld",
	}
	for _, line := range lines {
		fs := server.NewFieldScanner(line)
		bs := bscan{b: []byte(line)}
		for i := 0; ; i++ {
			sf, sok := fs.Next()
			bf, bok := bs.next()
			if sok != bok {
				t.Fatalf("line %q field %d: FieldScanner ok=%v, bscan ok=%v", line, i, sok, bok)
			}
			if !sok {
				break
			}
			if sf != string(bf) {
				t.Fatalf("line %q field %d: FieldScanner %q, bscan %q", line, i, sf, bf)
			}
		}
		cf := server.NewFieldScanner(line)
		if got, want := (&bscan{b: []byte(line)}).count(), cf.CountFields(); got != want {
			t.Errorf("line %q: bscan.count=%d, CountFields=%d", line, got, want)
		}
	}
}

// TestParseHex64bMatchesStrconv: the byte-level hex parser must agree
// with strconv.ParseUint(s, 16, 64) — the server's parser — on both
// acceptance and value, so keys route by the value the backend will
// actually store.
func TestParseHex64bMatchesStrconv(t *testing.T) {
	cases := []string{
		"", "0", "1", "dead", "DEAD", "dEaD",
		"ffffffffffffffff",         // max
		"0ffffffffffffffff",        // 17 digits, fits
		"00000000000000000000dead", // long zero run
		"10000000000000000",        // 2^64: overflow
		"1ffffffffffffffff",        // overflow
		"0x12", "+1", "-1", "12zz", "g", " 1", "1 ", "١",
	}
	for _, s := range cases {
		want, errWant := strconv.ParseUint(s, 16, 64)
		got, ok := server.ParseHex64([]byte(s))
		if ok != (errWant == nil) {
			t.Errorf("server.ParseHex64(%q) ok=%v, strconv err=%v", s, ok, errWant)
			continue
		}
		if ok && got != want {
			t.Errorf("server.ParseHex64(%q) = %#x, strconv = %#x", s, got, want)
		}
	}
}

// TestParseVecBytesMatchesServer: same contract one level up, for the
// "<lo>" and "<hi>:<lo>" wire spellings.
func TestParseVecBytesMatchesServer(t *testing.T) {
	cases := []string{
		"dead", "0:dead", "dead:beef", "0:0", ":", "a:", ":a",
		"deadbeefcafef00d:0123456789abcdef",
		"zz", "1:zz", "zz:1", "", "1:2:3",
	}
	for _, s := range cases {
		want, errWant := server.ParseVec(s)
		got, ok := parseVecBytes([]byte(s))
		if ok != (errWant == nil) {
			t.Errorf("parseVecBytes(%q) ok=%v, server err=%v", s, ok, errWant)
			continue
		}
		if ok && (got.Lo != want[0] || got.Hi != want[1]) {
			t.Errorf("parseVecBytes(%q) = %x:%x, server = %x:%x", s, got.Hi, got.Lo, want[1], want[0])
		}
	}
}

func TestReplyTokenHelpers(t *testing.T) {
	if !tokenEq([]byte("OK"), "OK") || !tokenEq([]byte("OK scrub x"), "OK") {
		t.Error("tokenEq misses valid OK forms")
	}
	if tokenEq([]byte("OKAY"), "OK") || tokenEq([]byte("MISS!"), "MISS") {
		t.Error("tokenEq matches a longer token")
	}
	tok, rest := firstToken([]byte("MRESULTS HIT:0:1 MISS"))
	if string(tok) != "MRESULTS" {
		t.Errorf("firstToken = %q", tok)
	}
	var slots []string
	for {
		var s []byte
		s, rest = tokenAt([]byte("MRESULTS HIT:0:1 MISS"), rest)
		if s == nil {
			break
		}
		slots = append(slots, string(s))
	}
	if len(slots) != 2 || slots[0] != "HIT:0:1" || slots[1] != "MISS" {
		t.Errorf("tokenAt walk = %q", slots)
	}
	k, v, ok := splitKV([]byte("alpha=0.125"))
	if !ok || string(k) != "alpha" || string(v) != "0.125" {
		t.Errorf("splitKV = %q %q %v", k, v, ok)
	}
	a, b, ok := splitSlash([]byte("3/16"))
	if !ok || parseInt(a) != 3 || parseInt(b) != 16 {
		t.Errorf("splitSlash = %q %q %v", a, b, ok)
	}
	if parseInt([]byte("-42")) != -42 || parseInt([]byte("17")) != 17 {
		t.Error("parseInt decimal parse broken")
	}
}
