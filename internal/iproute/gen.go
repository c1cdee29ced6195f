package iproute

import (
	"math"
	"math/rand"
	"sort"

	"caram/internal/workload"
)

// Synthetic BGP-like routing table. The AS1103 snapshot the paper uses
// is not redistributable, so we generate a table reproducing the two
// properties that drive Table 2 (see DESIGN.md):
//
//  1. The prefix-length histogram of 2006-era core tables (Huston '01,
//     RIPE RIS): minimum length 8, ~0.3% of prefixes shorter than /16
//     (the paper: "over 98% ... are at least 16 bits long"), mass
//     concentrated at /24, and short-prefix counts tuned so don't-care
//     duplication lands at the paper's 6.4%.
//  2. Clustering of prefixes in the 16-bit hash window: address space
//     is allocated hierarchically, so many prefixes share their top
//     16 bits. This skews bucket loads under bit-selection hashing and
//     is what produces the paper's overflow and AMAL levels.

// PaperTableSize is the AS1103 prefix count the paper reports.
const PaperTableSize = 186760

// shortLengths gives absolute counts (at PaperTableSize scale) for
// prefixes shorter than /16; counts scale linearly with table size.
// Tuned so total duplication = ~6.4% (12,035 extra entries at full
// scale: sum of count*(2^(16-L)-1)).
var shortLengths = []struct {
	len   int
	count int
}{
	{8, 20}, {9, 15}, {10, 30}, {11, 40},
	{12, 60}, {13, 90}, {14, 100}, {15, 120},
}

// longLengthDist gives the fractional distribution over lengths >= 16.
var longLengthDist = []struct {
	len  int
	frac float64
}{
	{16, 0.065}, {17, 0.012}, {18, 0.022}, {19, 0.035},
	{20, 0.035}, {21, 0.037}, {22, 0.050}, {23, 0.055},
	{24, 0.672}, {25, 0.005}, {26, 0.004}, {27, 0.003},
	{28, 0.002}, {29, 0.001}, {30, 0.001}, {31, 0.0005}, {32, 0.0005},
}

// GenConfig controls table synthesis.
type GenConfig struct {
	Prefixes int   // target unique prefix count; 0 = PaperTableSize
	Seed     int64 // RNG seed
	// Blocks is the number of distinct /16 allocation blocks the long
	// prefixes cluster into; 0 derives a table-size-proportional
	// default (~1 block per 28 prefixes, matching observed clustering).
	Blocks int
	// BlockSkew is the power-law exponent for how prefixes pile into
	// popular blocks (weight of the k-th block ~ 1/(k+1)^s); 0
	// defaults to 0.70, calibrated so the Table 2 designs' overflow
	// and AMAL levels land at the paper's (B, C, E nearly exact).
	BlockSkew float64
}

// Generate synthesizes a routing table. The result is deduplicated,
// sorted by (length, address) for determinism, and contains exactly
// cfg.Prefixes entries.
func Generate(cfg GenConfig) []Prefix {
	if cfg.Prefixes <= 0 {
		cfg.Prefixes = PaperTableSize
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = cfg.Prefixes/28 + 16
	}
	if cfg.BlockSkew == 0 {
		cfg.BlockSkew = 0.70
	}
	rng := workload.NewRand(cfg.Seed)

	seen := make(map[uint64]bool, cfg.Prefixes)
	out := make([]Prefix, 0, cfg.Prefixes)
	add := func(p Prefix) bool {
		p = p.Canonical()
		id := uint64(p.Addr)<<6 | uint64(p.Len)
		if seen[id] {
			return false
		}
		seen[id] = true
		p.NextHop = uint8(1 + rng.Intn(255))
		out = append(out, p)
		return true
	}

	// Short prefixes: scaled absolute counts.
	for _, sl := range shortLengths {
		count := sl.count * cfg.Prefixes / PaperTableSize
		if count == 0 && cfg.Prefixes >= 4096 {
			count = 1
		}
		for placed := 0; placed < count; {
			addr := uint32(rng.Intn(224)) << 24 // unicast space
			addr |= uint32(rng.Intn(1<<16)) << 8
			if add(Prefix{Addr: addr, Len: sl.len}) {
				placed++
			}
		}
	}

	// Allocation blocks: top-16-bit values with a skewed first octet.
	blocks := make([]uint32, cfg.Blocks)
	for i := range blocks {
		blocks[i] = uint32(firstOctet(rng))<<8 | uint32(rng.Intn(256))
	}
	// Sub-linear power-law block popularity: cumulative weights sampled
	// by binary search (math/rand's Zipf requires s > 1, which is far
	// too head-heavy for address-space clustering).
	blockCum := make([]float64, len(blocks))
	acc := 0.0
	for k := range blockCum {
		acc += 1 / math.Pow(float64(k+1), cfg.BlockSkew)
		blockCum[k] = acc
	}
	pickBlock := func() uint32 {
		u := rng.Float64() * acc
		i := sort.SearchFloat64s(blockCum, u)
		if i >= len(blocks) {
			i = len(blocks) - 1
		}
		return blocks[i]
	}

	// Long prefixes: length from the distribution, block from the
	// popularity law.
	cum := cumulative(longLengthDist)
	for len(out) < cfg.Prefixes {
		l := sampleLen(rng, cum)
		block := pickBlock()
		addr := block << 16
		if l > 16 {
			addr |= uint32(rng.Intn(1<<uint(l-16))) << uint(32-l)
		}
		add(Prefix{Addr: addr, Len: l})
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Len != out[j].Len {
			return out[i].Len < out[j].Len
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// firstOctet draws a first octet with the real-world concentration of
// allocations in a handful of /8s.
func firstOctet(rng *rand.Rand) int {
	// 40% of blocks land in 8 "hot" /8s, the rest spread over unicast
	// space — a coarse image of 2006 BGP allocation density.
	hot := []int{62, 80, 193, 195, 200, 202, 210, 217}
	if rng.Intn(100) < 40 {
		return hot[rng.Intn(len(hot))]
	}
	return 1 + rng.Intn(222)
}

func cumulative(dist []struct {
	len  int
	frac float64
}) []float64 {
	cum := make([]float64, len(dist))
	sum := 0.0
	for i, d := range dist {
		sum += d.frac
		cum[i] = sum
	}
	return cum
}

func sampleLen(rng *rand.Rand, cum []float64) int {
	u := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if u <= c {
			return longLengthDist[i].len
		}
	}
	return longLengthDist[len(longLengthDist)-1].len
}
