package iproute

import (
	"testing"

	"caram/internal/hash"
)

func TestGenerateCountAndUniqueness(t *testing.T) {
	table := Generate(GenConfig{Prefixes: 20000, Seed: 1})
	if len(table) != 20000 {
		t.Fatalf("len = %d", len(table))
	}
	seen := map[uint64]bool{}
	for _, p := range table {
		if p.Canonical() != p {
			t.Fatalf("non-canonical prefix %s", p)
		}
		id := uint64(p.Addr)<<6 | uint64(p.Len)
		if seen[id] {
			t.Fatalf("duplicate prefix %s", p)
		}
		seen[id] = true
		if p.NextHop == 0 {
			t.Fatalf("prefix %s has zero next hop", p)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Prefixes: 5000, Seed: 7})
	b := Generate(GenConfig{Prefixes: 5000, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := Generate(GenConfig{Prefixes: 5000, Seed: 8})
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateLengthDistribution(t *testing.T) {
	table := Generate(GenConfig{Prefixes: 100000, Seed: 2})
	var h [33]int
	for _, p := range table {
		h[p.Len]++
	}
	atLeast16 := 0
	for l := 16; l <= 32; l++ {
		atLeast16 += h[l]
	}
	// Paper: over 98% of prefixes are at least 16 bits long.
	if frac := float64(atLeast16) / float64(len(table)); frac < 0.98 {
		t.Errorf("only %.1f%% of prefixes >= /16", 100*frac)
	}
	// Minimum length 8 (paper: first 8 bits never don't-care).
	for l := 0; l < 8; l++ {
		if h[l] != 0 {
			t.Errorf("%d prefixes of impossible length %d", h[l], l)
		}
	}
	// /24 is the mode.
	for l := 8; l <= 32; l++ {
		if l != 24 && h[l] > h[24] {
			t.Errorf("/%d (%d) outnumbers /24 (%d)", l, h[l], h[24])
		}
	}
	if h[24] < len(table)/2 {
		t.Errorf("/24 count %d below half the table", h[24])
	}
}

// The duplication the paper reports: ~6.4% extra entries from
// don't-care bits in hash positions, regardless of R (>8).
func TestDuplicationNearPaperValue(t *testing.T) {
	table := Generate(GenConfig{Prefixes: PaperTableSize, Seed: 3})
	for _, r := range []int{11, 12, 13} {
		gen := hash.NewBitSelect(HashPositions(r))
		extra := 0
		for _, p := range table {
			extra += gen.DuplicationFactor(p.Key()) - 1
		}
		pct := 100 * float64(extra) / float64(len(table))
		if pct < 5.5 || pct > 7.5 {
			t.Errorf("R=%d: duplication = %.2f%%, paper: 6.4%%", r, pct)
		}
	}
}

func TestGenerateClustersInHashWindow(t *testing.T) {
	// The top-16-bit blocks must be heavily reused — that clustering is
	// what drives Table 2's overflow behavior.
	table := Generate(GenConfig{Prefixes: 50000, Seed: 4})
	blocks := map[uint32]int{}
	for _, p := range table {
		if p.Len >= 16 {
			blocks[p.Addr>>16]++
		}
	}
	if len(blocks) >= len(table)/4 {
		t.Errorf("%d distinct /16 blocks for %d prefixes: no clustering", len(blocks), len(table))
	}
	maxBlock := 0
	for _, c := range blocks {
		if c > maxBlock {
			maxBlock = c
		}
	}
	if maxBlock < 100 {
		t.Errorf("largest block holds %d prefixes; expected hot blocks", maxBlock)
	}
}

func TestGenerateDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size table generation in -short mode")
	}
	table := Generate(GenConfig{Seed: 5})
	if len(table) != PaperTableSize {
		t.Errorf("default size = %d, want %d", len(table), PaperTableSize)
	}
}
