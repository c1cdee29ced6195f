package iproute

import (
	"fmt"
	"math"
	"sort"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
	"caram/internal/workload"
)

// IPv6 lookup — the scaling pressure §4.1 anticipates: "The size of a
// routing table will even quadruple as we adopt IPv6." Routed IPv6
// prefixes are at most 64 bits, so a record is 64 ternary symbols
// (128 stored bits), twice the IPv4 key; with tables growing several-
// fold, associative capacity is exactly where TCAM hurts and dense
// CA-RAM pays off. The generator mirrors 2010s-era IPv6 BGP structure:
// /32 LIR allocations spawning clustered /48 site routes (the /48 mode
// plays /24's role), with hash bits drawn from the first 32 bits.

// Prefix6 is an IPv6 route: the top 64 bits of the address and a
// prefix length up to 64.
type Prefix6 struct {
	Addr    uint64 // top 64 address bits; bits below Len are zero
	Len     int    // 0..64
	NextHop uint8
}

// Canonical zeroes bits below the prefix length.
func (p Prefix6) Canonical() Prefix6 {
	p.Addr &= p.netMask()
	return p
}

func (p Prefix6) netMask() uint64 {
	if p.Len <= 0 {
		return 0
	}
	if p.Len >= 64 {
		return ^uint64(0)
	}
	return ^uint64(0) << uint(64-p.Len)
}

// Matches reports whether the 64-bit address head falls in the prefix.
func (p Prefix6) Matches(addr uint64) bool {
	return addr&p.netMask() == p.Addr&p.netMask()
}

// Key returns the 64-bit ternary CA-RAM key.
func (p Prefix6) Key() bitutil.Ternary {
	return bitutil.NewTernary(
		bitutil.FromUint64(p.Addr),
		bitutil.FromUint64(^p.netMask()),
	)
}

// String renders an abbreviated hex form, e.g. 2001:db8::/32.
func (p Prefix6) String() string {
	return fmt.Sprintf("%x:%x:%x:%x::/%d",
		p.Addr>>48, p.Addr>>32&0xffff, p.Addr>>16&0xffff, p.Addr&0xffff, p.Len)
}

// v6LengthDist: fractions per prefix length for prefixes of at least
// /32, mode at /48 with a secondary peak at /32 (allocation
// boundaries). Shorter prefixes use small absolute counts, as the v4
// generator does, because each one must be duplicated into every
// bucket its masked hash bits reach.
var v6LengthDist = []struct {
	len  int
	frac float64
}{
	{32, 0.270}, {36, 0.030}, {40, 0.062}, {44, 0.057},
	{48, 0.525}, {56, 0.031}, {64, 0.025},
}

// shortLengths6 gives absolute counts (at the 4x-PaperTableSize scale)
// for prefixes shorter than /32; counts scale with table size.
var shortLengths6 = []struct {
	len   int
	count int
}{
	{24, 20}, {26, 30}, {28, 60}, {29, 90}, {30, 120}, {31, 150},
}

// Generate6 synthesizes an IPv6-like table of n unique prefixes.
func Generate6(n int, seed int64) []Prefix6 {
	if n <= 0 {
		n = 4 * PaperTableSize // the paper's "quadruple" projection
	}
	rng := workload.NewRand(seed)

	// /32 allocation blocks (the top 32 bits), power-law popular.
	nBlocks := n/24 + 16
	blocks := make([]uint64, nBlocks)
	for i := range blocks {
		// 2000::/3 global unicast: top 3 bits = 001.
		blocks[i] = 0x20000000 | uint64(rng.Uint32())&0x1fffffff
	}
	blockCum := make([]float64, nBlocks)
	acc := 0.0
	for k := range blockCum {
		acc += 1 / math.Pow(float64(k+1), 0.70)
		blockCum[k] = acc
	}
	pickBlock := func() uint64 {
		u := rng.Float64() * acc
		i := sort.SearchFloat64s(blockCum, u)
		if i >= nBlocks {
			i = nBlocks - 1
		}
		return blocks[i]
	}

	cum := make([]float64, len(v6LengthDist))
	sum := 0.0
	for i, d := range v6LengthDist {
		sum += d.frac
		cum[i] = sum
	}
	sampleLen := func() int {
		u := rng.Float64() * sum
		for i, c := range cum {
			if u <= c {
				return v6LengthDist[i].len
			}
		}
		return 48
	}

	seen := make(map[uint64]bool, n)
	out := make([]Prefix6, 0, n)
	add := func(p Prefix6) bool {
		p = p.Canonical()
		id := p.Addr ^ uint64(p.Len)<<1
		if seen[id] {
			return false
		}
		seen[id] = true
		p.NextHop = uint8(1 + rng.Intn(255))
		out = append(out, p)
		return true
	}
	for _, sl := range shortLengths6 {
		count := sl.count * n / (4 * PaperTableSize)
		if count == 0 && n >= 4096 {
			count = 1
		}
		for placed := 0; placed < count; {
			addr := (0x20000000 | uint64(rng.Uint32())&0x1fffffff) << 32
			if add(Prefix6{Addr: addr, Len: sl.len}) {
				placed++
			}
		}
	}
	for len(out) < n {
		l := sampleLen()
		addr := pickBlock() << 32
		if l > 32 {
			addr |= rng.Uint64() & ((1<<uint(l-32) - 1) << uint(64-l))
		}
		add(Prefix6{Addr: addr, Len: l})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len != out[j].Len {
			return out[i].Len < out[j].Len
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Design6 is an IPv6 CA-RAM geometry: 64-bit ternary keys, so a row of
// the paper's 4096 bits holds half the keys an IPv4 row does.
type Design6 struct {
	Name       string
	R          int
	KeysPerRow int
	Slices     int
}

// Evaluation6 mirrors Evaluation for the IPv6 table.
type Evaluation6 struct {
	Design         Design6
	Prefixes       int
	Stored         int
	Duplicates     int
	DupPct         float64
	LoadFactor     float64
	OverflowingPct float64
	SpilledPct     float64
	AMALu          float64 // per stored copy (Slice.ExpectedRows); Evaluation's is per prefix
	Unplaced       int
	Slice          *caram.Slice
}

// HashPositions6 returns the selection positions: the last n bits of
// the first 32 address bits (key bits 32..32+n-1), the IPv6 analogue
// of the paper's choice — almost every prefix is at least /32, so
// these bits are rarely masked.
func HashPositions6(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = 32 + i
	}
	return pos
}

// Evaluate6 builds an IPv6 design and computes the Table 2 metrics.
func Evaluate6(table []Prefix6, d Design6) (*Evaluation6, error) {
	gen := hash.NewBitSelect(HashPositions6(d.R))
	slot := 1 + 64 + 64 + NextHopBits
	slots := d.KeysPerRow * d.Slices
	slice, err := caram.New(caram.Config{
		IndexBits:       d.R,
		RowBits:         slots*slot + 16,
		KeyBits:         64,
		DataBits:        NextHopBits,
		Ternary:         true,
		AuxBits:         16,
		Tech:            mem.DRAM,
		Index:           gen,
		AllowDuplicates: true,
	})
	if err != nil {
		return nil, err
	}
	ordered := append([]Prefix6(nil), table...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Len > ordered[j].Len })

	ev := &Evaluation6{Design: d, Prefixes: len(table), Slice: slice}
	for _, p := range ordered {
		key := p.Key()
		rec := match.Record{Key: key, Data: bitutil.FromUint64(uint64(p.NextHop))}
		homes := gen.TernaryIndices(key)
		ev.Duplicates += len(homes) - 1
		for _, home := range homes {
			_, err := slice.Place(home, rec)
			if err == caram.ErrFull {
				ev.Unplaced++
				continue
			}
			if err != nil {
				return nil, err
			}
		}
	}
	ev.Stored = slice.Count()
	ev.LoadFactor = float64(len(table)) / float64((1<<uint(d.R))*slots)
	ev.DupPct = 100 * float64(ev.Duplicates) / float64(len(table))
	pl := slice.Placement()
	ev.OverflowingPct = pl.OverflowingPct
	ev.SpilledPct = pl.SpilledPct
	if ev.Stored > 0 {
		ev.AMALu = slice.ExpectedRows()
	}
	return ev, nil
}

// LPMLookup6 resolves a 64-bit IPv6 address head against a built
// design.
func LPMLookup6(slice *caram.Slice, addr uint64) (nextHop uint8, length int, ok bool) {
	res := slice.LookupBest(bitutil.Exact(bitutil.FromUint64(addr)),
		func(r match.Record) int { return r.Key.Specificity(64) })
	if !res.Found {
		return 0, 0, false
	}
	return uint8(res.Record.Data.Uint64()), res.Record.Key.Specificity(64), true
}
