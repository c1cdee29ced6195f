package server

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/wire"
)

// responsePrefixes classifies every legal single-line response.
var responsePrefixes = []string{"OK", "HIT ", "MISS", "ERR ", "ENGINES", "STATS ", "MRESULTS", "METRICS", "SLOWLOG ", "EXPLAIN ", "HEALTH"}

// FuzzExec throws arbitrary request lines at the protocol engine: no
// input may panic it, and every response must be one well-formed line
// of a known shape. The seed corpus covers each command, the
// malformed-hex cases parseVec must reject, and an oversized line.
func FuzzExec(f *testing.F) {
	seeds := []string{
		"",
		"ENGINES",
		"INSERT db dead 42",
		"SEARCH db dead",
		"SEARCH db dead ff",
		"SEARCH db 12zz", // hex prefix + garbage: the Sscanf bug class
		"SEARCH db 1:2:3",
		"SEARCH db 0xdead",
		"SEARCH db -1",
		"SEARCH db +1",
		"SEARCH db " + strings.Repeat("f", 17), // overflows uint64
		"MSEARCH db dead db beef",
		"MSEARCH db",     // odd arg count
		"MSEARCH nope 1", // unknown engine
		"DELETE db dead",
		"STATS db",
		"STATS nope",
		"METRICS",
		"METRICS db",
		"METRICS nope",
		"METRICS db LATENCY",
		"METRICS db LATENCY SEARCH",
		"METRICS db latency msearch",
		"METRICS db LATENCY BOGUS",
		"METRICS db extra junk",
		"SLOWLOG",
		"SLOWLOG LEN",
		"SLOWLOG GET",
		"SLOWLOG GET 2",
		"SLOWLOG GET 0",
		"SLOWLOG GET -1",
		"SLOWLOG GET 1 extra",
		"SLOWLOG GET 99999999", // beyond the GET bound
		"SLOWLOG GET 99999999999999999999",
		"SLOWLOG RESET",
		"SLOWLOG BOGUS",
		"slowlog get",
		"EXPLAIN",
		"EXPLAIN SEARCH",
		"EXPLAIN SEARCH db dead",
		"EXPLAIN SEARCH db dead ff",
		"EXPLAIN SEARCH db 12zz",
		"EXPLAIN SEARCH nope 1",
		"EXPLAIN INSERT db 1",
		"explain search db dead",
		"HEALTH",
		"HEALTH db",
		"HEALTH nope",
		"HEALTH db SCRUB",
		"HEALTH db scrub",
		"HEALTH db BOGUS",
		"HEALTH db SCRUB extra",
		"health db",
		"CREATE ENGINE z TYPE lpm INDEXBITS 4",
		"CREATE ENGINE z TYPE trigram",
		"CREATE ENGINE z TYPE pktclass SLOTS 4 ECC",
		"CREATE ENGINE z TYPE wat",
		"CREATE ENGINE z TYPE lpm INDEXBITS 99",
		"CREATE ENGINE db TYPE exact", // duplicate of the fixture engine
		"CREATE ENGINE",
		"create engine y type lpm indexbits 4 slots 2",
		"DROP ENGINE z",
		"DROP ENGINE nope",
		"DROP",
		"MINSERT z 12 ff 1",
		"MINSERT db 12 ff 1", // exact engine: type gate
		"MINSERT z 12zz ff 1",
		"MINSERT z 12 ff",
		"MDELETE z 12 ff",
		"MDELETE db 12 ff",
		"TINSERT z 1 hello world",
		"TINSERT db 1 hello",
		"TINSERT z zz hello",
		"TINSERT z 1",
		"TSEARCH z hello world",
		"TSEARCH db hello",
		"TSEARCH z",
		"BOGUS x y",
		"insert db 1 2", // lowercase command
		"INSERT db 1 2 3 4",
		"  SEARCH \t db \t dead  ",
		strings.Repeat("A", 70000), // oversized line (Handle rejects; Exec must survive)
		"SEARCH db \x00\xff",
		"INSERT db ÿ 1",
		// The write path on all four engine types, in order on the shared
		// server: insert, the duplicate the exact-locate rejects, delete,
		// the delete that now finds nothing, a second record landing in
		// the freed slot, an update-by-reinsert; on the ternary engines
		// keys that match a stored record without being it (a narrower
		// and a wider mask), which must neither collide nor delete it.
		"INSERT db beef 1",
		"INSERT db beef 2", // ERR exists
		"SEARCH db beef",
		"DELETE db beef",
		"DELETE db beef", // absent
		"INSERT db f00d 3",
		"INSERT db beef 4",
		"DELETE db cafe", // never stored
		"CREATE ENGINE wl TYPE lpm INDEXBITS 4 SLOTS 2",
		"MINSERT wl a000000 ffffff 1",
		"MINSERT wl a000000 ffffff 2", // exists
		"MINSERT wl a000000 ffff 3",   // covered by the /8, not equal to it
		"MINSERT wl a000000 fffffff 4",
		"SEARCH wl a000001",
		"MDELETE wl a000000 ff", // matches, equals nothing
		"MDELETE wl a000000 ffffff",
		"MDELETE wl a000000 ffffff", // absent
		"MINSERT wl a000000 ffffff 5",
		"MDELETE wl a000000 ffff",
		"MDELETE wl a000000 fffffff",
		"CREATE ENGINE wp TYPE pktclass INDEXBITS 4 SLOTS 2",
		"MINSERT wp a01010000:1bb000006 ffff:ffffff0000ffff00 0:1010064",
		"MINSERT wp a01010000:1bb000006 ffff:ffffff0000ffff00 0:1010065", // exists
		"MINSERT wp a01010000:1bb000006 ff:ffffff0000ffff00 0:2020032",
		"SEARCH wp a010107c0:a8000101bb303906",
		"MDELETE wp a01010000:1bb000006 ffff:ffffff0000ffff00",
		"MDELETE wp a01010000:1bb000006 ffff:ffffff0000ffff00", // absent
		"MDELETE wp a01010000:1bb000006 ff:ffffff0000ffff00",
		"CREATE ENGINE wt TYPE trigram INDEXBITS 4 SLOTS 2",
		"TINSERT wt 1 the quick fox",
		"TINSERT wt 2 the quick fox", // exists
		"TINSERT wt 3 the quick fix",
		"TSEARCH wt the quick fox",
		"DROP ENGINE wt",
		"TINSERT wt 4 the quick fox", // no engine
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := fuzzServer()
	f.Fuzz(func(t *testing.T, line string) {
		resp := srv.Exec(line)
		if resp == "" {
			t.Fatalf("empty response for %q", line)
		}
		if strings.ContainsAny(resp, "\n\r") {
			t.Fatalf("multi-line response %q for %q", resp, line)
		}
		known := false
		for _, p := range responsePrefixes {
			if resp == strings.TrimSpace(p) || strings.HasPrefix(resp, p) {
				known = true
				break
			}
		}
		if !known {
			t.Fatalf("unclassifiable response %q for %q", resp, line)
		}
	})
}

// FuzzParseVec checks that wire.ParseVec never panics, returns the zero
// vector on every rejection, and round-trips every value it accepts.
func FuzzParseVec(f *testing.F) {
	seeds := []string{
		"", "0", "dead", "DEAD", "dEaD",
		"12zz", "zz12", "0x12", "+12", "-1", "١٢", // non-ASCII digits
		"deadbeef:cafef00d", ":", "1:", ":1", "1:2:3", "1::2",
		strings.Repeat("f", 16), strings.Repeat("f", 17),
		strings.Repeat("0", 100) + "1", "ffffffffffffffff:ffffffffffffffff",
		"1 2", "1\t2", "1.5", "e", "E", "_1", "1_2",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, ok := wire.ParseVec(s)
		if !ok {
			if v != (bitutil.Vec128{}) {
				t.Fatalf("ParseVec(%q) rejected but non-zero value %v", s, v)
			}
			return
		}
		// Whatever parsed must survive a format/reparse round trip.
		rt, ok := wire.ParseVec(fmt.Sprintf("%x:%x", v.Hi, v.Lo))
		if !ok {
			t.Fatalf("round-trip of %q failed", s)
		}
		if rt != v {
			t.Fatalf("ParseVec(%q) = %v, round-trips to %v", s, v, rt)
		}
	})
}

// FuzzParseHex64 holds the digit loop to the parser it replaced: for
// every input, ParseHex64 accepts exactly what strconv.ParseUint(s, 16,
// 64) accepts — no signs, prefixes, separators or trailing garbage,
// overflow rejected — and returns the same value.
func FuzzParseHex64(f *testing.F) {
	for _, s := range []string{
		"", "0", "dead", "DEAD", "dEaD", "12zz", "0x12", "+12", "-1", "_1", "1_2", "1 ", "١٢",
		strings.Repeat("f", 16),       // max uint64
		"0" + strings.Repeat("f", 16), // 17 digits, still fits
		strings.Repeat("f", 17), "1" + strings.Repeat("0", 16),
		strings.Repeat("0", 100) + "1",
		// Both sides of each split: one padded word below 8 digits, two
		// overlapping words from 8 to 16, leading zeros stripped past 16
		// (only they let such a field fit).
		"1234567", "12345678", "123456789", "0123456789abcdef", strings.Repeat("0", 16), "fedcba9876543210",
		"00123456789abcdef", "10123456789abcdef",
		"00000123456789abcdef", "0000ffffffffffffffff", "0001ffffffffffffffff", "ffffffffffffffffffff",
		// An invalid byte first, in the middle and last, on each side.
		"g234567", "123g567", "123456g", "g2345678", "1234g678", "1234567g", "g23456789", "1234g6789", "12345678g",
		"g123456789abcdef", "01234567g9abcdef", "0123456789abcdeg", "\xff123456789abcdef", "0123456789abcde\x00",
		"g0000123456789abcdef", "0000012345z789abcdef", "00000123456789abcde:",
		// The neighbours of the digit ranges, and digits with the high bit set.
		"/1234567", "1234567:", "@1234567", "G1234567", "`1234567", "\xb01234567", "\xe11234567", "ABCDEFab", "\xb1", "1\xe1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := strconv.ParseUint(s, 16, 64)
		got, ok := wire.ParseHex64(s)
		if ok != (err == nil) || (ok && got != want) {
			t.Fatalf("ParseHex64(%q) = %#x, %v; strconv = %#x, %v", s, got, ok, want, err)
		}
	})
}
