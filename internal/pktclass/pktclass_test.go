package pktclass

import (
	"testing"
	"testing/quick"

	"caram/internal/iproute"
)

func mustPrefix(t *testing.T, s string) iproute.Prefix {
	t.Helper()
	p, err := iproute.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRangeToPrefixesKnownCases(t *testing.T) {
	cases := []struct {
		r    PortRange
		want int // cover size
	}{
		{ExactPort(80), 1},
		{AnyPort(), 1},
		{PortRange{0, 1023}, 1},     // aligned block
		{PortRange{1024, 65535}, 6}, // classic ephemeral cover
		{PortRange{1, 65534}, 30},   // worst case: 2*16-2
	}
	for _, c := range cases {
		got := RangeToPrefixes(c.r)
		if len(got) != c.want {
			t.Errorf("cover(%d-%d) = %d prefixes, want %d", c.r.Lo, c.r.Hi, len(got), c.want)
		}
	}
	if RangeToPrefixes(PortRange{5, 4}) != nil {
		t.Error("inverted range produced a cover")
	}
}

// Property: the cover is exact — every port in [lo,hi] is covered by
// exactly one prefix, and no port outside is covered.
func TestRangeCoverExactQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		cover := RangeToPrefixes(PortRange{lo, hi})
		// Spot-check boundary and sampled ports.
		probes := []uint16{lo, hi, lo + (hi-lo)/2, lo + (hi-lo)/3}
		if lo > 0 {
			probes = append(probes, lo-1)
		}
		if hi < 0xffff {
			probes = append(probes, hi+1)
		}
		for _, p := range probes {
			n := 0
			for _, pp := range cover {
				if pp.Contains(p) {
					n++
				}
			}
			inside := p >= lo && p <= hi
			if inside && n != 1 {
				return false
			}
			if !inside && n != 0 {
				return false
			}
		}
		return len(cover) <= 30
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRuleMatches(t *testing.T) {
	r := Rule{
		ID:        1,
		SrcPrefix: mustPrefix(t, "10.0.0.0/8"),
		DstPrefix: mustPrefix(t, "192.168.1.0/24"),
		SrcPorts:  AnyPort(),
		DstPorts:  ExactPort(443),
		Proto:     6,
	}
	hit := FiveTuple{SrcIP: 0x0A010203, DstIP: 0xC0A80105, SrcPort: 33000, DstPort: 443, Proto: 6}
	if !r.Matches(hit) {
		t.Error("matching packet rejected")
	}
	for _, miss := range []FiveTuple{
		{SrcIP: 0x0B010203, DstIP: 0xC0A80105, SrcPort: 33000, DstPort: 443, Proto: 6}, // src
		{SrcIP: 0x0A010203, DstIP: 0xC0A80205, SrcPort: 33000, DstPort: 443, Proto: 6}, // dst
		{SrcIP: 0x0A010203, DstIP: 0xC0A80105, SrcPort: 33000, DstPort: 80, Proto: 6},  // port
		{SrcIP: 0x0A010203, DstIP: 0xC0A80105, SrcPort: 33000, DstPort: 443, Proto: 17},
	} {
		if r.Matches(miss) {
			t.Errorf("non-matching packet %+v accepted", miss)
		}
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	bad := r
	bad.SrcPorts = PortRange{5, 4}
	if err := bad.Validate(); err == nil {
		t.Error("inverted range validated")
	}
}

// Property: the ternary expansion is faithful — a key matches the
// expansion iff the rule matches the packet.
func TestTernaryExpansionFaithfulQuick(t *testing.T) {
	r := Rule{
		ID:        2,
		SrcPrefix: iproute.Prefix{Addr: 0x0A000000, Len: 8},
		DstPrefix: iproute.Prefix{Addr: 0xC0A80000, Len: 16},
		SrcPorts:  PortRange{1024, 65535},
		DstPorts:  PortRange{80, 90},
		Proto:     6,
	}
	keys := r.TernaryKeys()
	if len(keys) != r.ExpansionFactor() {
		t.Fatalf("expansion %d keys, factor %d", len(keys), r.ExpansionFactor())
	}
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		// Bias half the probes into the rule's space for coverage.
		if src%2 == 0 {
			src = 0x0A000000 | src&0x00ffffff
			dst = 0xC0A80000 | dst&0xffff
			dp = 80 + dp%16
		}
		p := FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto}
		key := p.Key()
		n := 0
		for _, k := range keys {
			if k.MatchesKey(key) {
				n++
			}
		}
		if r.Matches(p) {
			return n == 1 // disjoint cover: exactly one expanded entry
		}
		return n == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProtoAnyExpansion(t *testing.T) {
	r := Rule{ID: 3, SrcPorts: AnyPort(), DstPorts: AnyPort(), ProtoAny: true}
	keys := r.TernaryKeys()
	if len(keys) != 1 {
		t.Fatalf("wildcard rule expanded to %d keys", len(keys))
	}
	p := FiveTuple{SrcIP: 123, DstIP: 456, SrcPort: 7, DstPort: 8, Proto: 99}
	if !keys[0].MatchesKey(p.Key()) {
		t.Error("wildcard key does not match everything")
	}
}

func TestGenerateRulesDeterministicAndValid(t *testing.T) {
	a := GenerateRules(GenRulesConfig{Rules: 500, Seed: 1})
	b := GenerateRules(GenRulesConfig{Rules: 500, Seed: 1})
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
		if err := a[i].Validate(); err != nil {
			t.Fatalf("rule %d invalid: %v", i, err)
		}
	}
	// Priorities strictly descending in rule order.
	for i := 1; i < len(a); i++ {
		if a[i].Priority >= a[i-1].Priority {
			t.Fatal("priorities not descending")
		}
	}
}

func TestTraceHitsRules(t *testing.T) {
	rules := GenerateRules(GenRulesConfig{Rules: 200, Seed: 2})
	trace := GenerateTrace(rules, 500, 0, 3)
	misses := 0
	for _, p := range trace {
		if !Oracle(rules, p).Matched {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d rule-sampled packets miss the oracle", misses, len(trace))
	}
}
