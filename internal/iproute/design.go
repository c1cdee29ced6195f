package iproute

import (
	"fmt"
	"math/bits"
	"sort"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
	"caram/internal/workload"
)

// Arrangement is how multiple slices combine into one search engine
// (§3.2): horizontal slices widen buckets, vertical slices add rows.
type Arrangement int

// Arrangements.
const (
	Horizontal Arrangement = iota
	Vertical
)

// String names the arrangement as Table 2 does.
func (a Arrangement) String() string {
	if a == Vertical {
		return "vertical"
	}
	return "horizontal"
}

// Design is one row of Table 2: a CA-RAM geometry for the IP-lookup
// database. KeysPerRow is the per-slice bucket width in keys (the
// paper's C = KeysPerRow x 64 bits, each key being 32 ternary symbols).
type Design struct {
	Name       string
	R          int // per-slice index bits
	KeysPerRow int // 32 or 64
	Slices     int
	Arr        Arrangement
}

// Table2Designs are the six designs the paper evaluates.
var Table2Designs = []Design{
	{Name: "A", R: 11, KeysPerRow: 32, Slices: 6, Arr: Horizontal},
	{Name: "B", R: 11, KeysPerRow: 32, Slices: 7, Arr: Horizontal},
	{Name: "C", R: 11, KeysPerRow: 32, Slices: 8, Arr: Horizontal},
	{Name: "D", R: 12, KeysPerRow: 64, Slices: 2, Arr: Horizontal},
	{Name: "E", R: 12, KeysPerRow: 64, Slices: 3, Arr: Horizontal},
	{Name: "F", R: 12, KeysPerRow: 64, Slices: 2, Arr: Vertical},
}

// Buckets returns the total bucket count of the combined engine.
func (d Design) Buckets() int {
	if d.Arr == Vertical {
		return d.Slices << uint(d.R)
	}
	return 1 << uint(d.R)
}

// Slots returns S, keys per (combined) bucket.
func (d Design) Slots() int {
	if d.Arr == Vertical {
		return d.KeysPerRow
	}
	return d.KeysPerRow * d.Slices
}

// IndexBits returns the hash bits the combined engine consumes.
func (d Design) IndexBits() (int, error) {
	b := d.Buckets()
	if b&(b-1) != 0 {
		return 0, fmt.Errorf("iproute: design %s has non-power-of-two bucket count %d", d.Name, b)
	}
	return bits.TrailingZeros(uint(b)), nil
}

// CapacityBits returns the physical storage of the design in bits
// (64 bits per key slot), the quantity Figure 8's area model consumes.
func (d Design) CapacityBits() float64 {
	return float64(d.Slices) * float64(int(1)<<uint(d.R)) * float64(d.KeysPerRow) * 64
}

// Capacity returns M*S in keys.
func (d Design) Capacity() int { return d.Buckets() * d.Slots() }

// HashPositions returns the bit-selection positions for n index bits:
// "the last n bits in the first 16 bits" of the address (address bits
// 16..16+n-1 counting from the LSB), the choice the paper found best.
func HashPositions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = 16 + i
	}
	return pos
}

// Evaluation is one computed row of Table 2 plus diagnostics.
type Evaluation struct {
	Design         Design
	Prefixes       int     // unique prefixes (pre-duplication)
	Stored         int     // stored records (with duplicates)
	Duplicates     int     // extra records from don't-care hash bits
	DupPct         float64 // duplicates as % of Prefixes
	LoadFactor     float64 // alpha = Prefixes / (M*S), the paper's convention
	OverflowingPct float64 // % of buckets that spilled a record
	SpilledPct     float64 // % of stored records placed off-home
	AMALu          float64 // uniform access pattern
	AMALs          float64 // skewed (Zipf) access pattern
	Unplaced       int     // records that found no slot (0 in sane designs)
	Slice          *caram.Slice
}

// slotDataBits is the next-hop field width stored with each key.
const slotDataBits = 8

// SliceConfig derives the simulator configuration for a design whose
// buckets are indexed by gen: d.Slots() ternary slots per row of valid
// bit, 32-bit key, 32-bit mask and next hop, a 16-bit reach field, and
// duplicates allowed for don't-care expansion. gen sets the row count,
// so it should consume d.IndexBits() bits.
func SliceConfig(d Design, gen hash.IndexGenerator) caram.Config {
	slot := 1 + 32 + 32 + slotDataBits // valid + key + mask + next hop
	return caram.Config{
		IndexBits:       gen.Bits(),
		RowBits:         d.Slots()*slot + 16,
		KeyBits:         32,
		DataBits:        slotDataBits,
		Ternary:         true,
		AuxBits:         16,
		Tech:            mem.DRAM,
		Index:           gen,
		AllowDuplicates: true,
	}
}

// Evaluate builds the design from the routing table and computes the
// Table 2 metrics. Prefixes are inserted in decreasing prefix-length
// order (the LPM priority of §4.1); the skewed variant additionally
// orders same-length prefixes by descending access weight, exactly the
// re-placement the paper describes for AMALs. seed drives the skewed
// weight assignment.
func Evaluate(table []Prefix, d Design, seed int64) (*Evaluation, error) {
	weights := skewWeights(table, seed)

	// AMALu placement: length-descending order.
	uni := orderByLength(table, nil)
	evalU, err := place(uni, d, nil)
	if err != nil {
		return nil, err
	}
	// AMALs placement: length then weight.
	skew := orderByLength(table, weights)
	evalS, err := place(skew, d, weights)
	if err != nil {
		return nil, err
	}

	evalU.AMALs = evalS.AMALs
	evalU.Prefixes = len(table)
	evalU.LoadFactor = float64(len(table)) / float64(d.Capacity())
	evalU.DupPct = 100 * float64(evalU.Duplicates) / float64(len(table))
	return evalU, nil
}

// skewWeights assigns each prefix a Zipf access weight. Ranks are
// dealt to prefix-length groups proportionally to group size (heaviest
// rank to the largest remaining quota) and randomly within a group, so
// every length class gets a representative share of hot prefixes: the
// skew lives where the paper's does — across prefixes — without one
// length class winning the head-of-Zipf lottery, which at small scales
// would drown the placement signal in sampling noise.
func skewWeights(table []Prefix, seed int64) []float64 {
	n := len(table)
	w := workload.Weights(1.0, n)
	rng := workload.NewRand(seed)

	groups := make(map[int][]int)
	var lengths []int
	for i, p := range table {
		if len(groups[p.Len]) == 0 {
			lengths = append(lengths, p.Len)
		}
		groups[p.Len] = append(groups[p.Len], i)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		workload.Shuffle(rng, groups[l])
	}

	credit := make(map[int]float64, len(lengths))
	next := make(map[int]int, len(lengths))
	out := make([]float64, n)
	for rank := 0; rank < n; rank++ {
		best, bestCredit := -1, 0.0
		for _, l := range lengths {
			credit[l] += float64(len(groups[l])) / float64(n)
			if next[l] < len(groups[l]) && (best < 0 || credit[l] > bestCredit) {
				best, bestCredit = l, credit[l]
			}
		}
		idx := groups[best][next[best]]
		next[best]++
		credit[best]--
		out[idx] = w[rank]
	}
	return out
}

// indexed pairs a prefix with its position in the original table so
// weights survive reordering.
type indexed struct {
	p Prefix
	i int
}

// orderByLength sorts prefixes by descending length; when weights are
// given, ties order by descending weight (the AMALs placement).
func orderByLength(table []Prefix, weights []float64) []indexed {
	out := make([]indexed, len(table))
	for i, p := range table {
		out[i] = indexed{p, i}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].p.Len != out[b].p.Len {
			return out[a].p.Len > out[b].p.Len
		}
		if weights != nil && weights[out[a].i] != weights[out[b].i] {
			return weights[out[a].i] > weights[out[b].i]
		}
		return false
	})
	return out
}

// place inserts the ordered prefixes and computes placement metrics.
// When weights is nil the AMAL it reports is uniform (AMALu, stored in
// the AMALu field); otherwise it is weight-averaged (AMALs).
func place(ordered []indexed, d Design, weights []float64) (*Evaluation, error) {
	idxBits, err := d.IndexBits()
	if err != nil {
		return nil, err
	}
	gen := hash.NewBitSelect(HashPositions(idxBits))
	slice, err := caram.New(SliceConfig(d, gen))
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Design: d, Slice: slice}
	sumCost := 0.0 // sum over prefixes of expected accesses
	sumW := 0.0
	for _, ip := range ordered {
		key := ip.p.Key()
		rec := match.Record{Key: key, Data: bitutil.FromUint64(uint64(ip.p.NextHop))}
		homes := gen.TernaryIndices(key)
		ev.Duplicates += len(homes) - 1
		w := 1.0
		if weights != nil {
			w = weights[ip.i]
		}
		perCopy := w / float64(len(homes))
		for _, home := range homes {
			disp, err := slice.Place(home, rec)
			if err == caram.ErrFull {
				ev.Unplaced++
				continue
			}
			if err != nil {
				return nil, err
			}
			sumCost += perCopy * float64(1+disp)
			sumW += perCopy
		}
	}
	ev.Stored = slice.Count()
	p := slice.Placement()
	ev.OverflowingPct = p.OverflowingPct
	ev.SpilledPct = p.SpilledPct
	amal := 0.0
	if sumW > 0 {
		amal = sumCost / sumW
	}
	if weights == nil {
		ev.AMALu = amal
	} else {
		ev.AMALs = amal
	}
	return ev, nil
}

// LPMLookup performs a longest-prefix-match lookup for addr against a
// built design slice, returning the next hop. It is the operational
// (trace-driven) counterpart of the analytic AMAL computation.
func LPMLookup(slice *caram.Slice, addr uint32) (nextHop uint8, length int, ok bool) {
	res := slice.LookupBest(bitutil.Exact(bitutil.FromUint64(uint64(addr))),
		func(r match.Record) int { return r.Key.Specificity(32) })
	if !res.Found {
		return 0, 0, false
	}
	return uint8(res.Record.Data.Uint64()), res.Record.Key.Specificity(32), true
}
