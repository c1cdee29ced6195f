package cluster

import (
	"strconv"
	"testing"

	"caram/internal/wire"
)

// TestParseHex64bMatchesStrconv: the hex parser the router places keys
// with must agree with strconv.ParseUint(s, 16, 64) on both acceptance
// and value, so keys route by the value the backend will actually
// store.
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
		got, ok := wire.ParseHex64(s)
		if ok != (errWant == nil) {
			t.Errorf("wire.ParseHex64(%q) ok=%v, strconv err=%v", s, ok, errWant)
			continue
		}
		if ok && got != want {
			t.Errorf("wire.ParseHex64(%q) = %#x, strconv = %#x", s, got, want)
		}
	}
}

// TestReplyTokenHelpers: what reassembly reads replies with — the head
// token, the slot walk, k=v pairs, lenient integers.
func TestReplyTokenHelpers(t *testing.T) {
	if wire.Head("OK") != "OK" || wire.Head("OK scrub x") != "OK" {
		t.Error("Head misses valid OK forms")
	}
	if wire.Head("OKAY") == "OK" || wire.Head("MISS!") == "MISS" {
		t.Error("Head matches a longer token")
	}
	sc := wire.Scan("MRESULTS HIT:0:1 MISS")
	if tok, _ := sc.Next(); tok != "MRESULTS" {
		t.Errorf("first token = %q", tok)
	}
	var slots []string
	for s, ok := sc.Next(); ok; s, ok = sc.Next() {
		slots = append(slots, s)
	}
	if len(slots) != 2 || slots[0] != "HIT:0:1" || slots[1] != "MISS" {
		t.Errorf("slot walk = %q", slots)
	}
	sc = wire.Scan("STATS bare alpha=0.125 overflow=3/16")
	if k, v, ok := sc.NextKV(); !ok || k != "alpha" || v != "0.125" {
		t.Errorf("NextKV = %q %q %v", k, v, ok)
	}
	if k, v, ok := sc.NextKV(); !ok || k != "overflow" || v != "3/16" {
		t.Errorf("NextKV = %q %q %v", k, v, ok)
	}
	if _, _, ok := sc.NextKV(); ok {
		t.Error("NextKV past end of line")
	}
	if atoi("-42") != -42 || atoi("17") != 17 || atoi("zz") != 0 {
		t.Error("atoi decimal parse broken")
	}
}
