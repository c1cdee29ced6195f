package trigram

import (
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
	"caram/internal/stats"
)

// Arrangement mirrors Table 3's slice arrangements: vertical slices
// multiply the bucket count, horizontal slices widen buckets.
type Arrangement int

// Arrangements.
const (
	Vertical Arrangement = iota
	Horizontal
)

// String names the arrangement.
func (a Arrangement) String() string {
	if a == Horizontal {
		return "horizontal"
	}
	return "vertical"
}

// Design is one row of Table 3. Each slice contributes 2^R rows of 96
// 128-bit keys (C = 96 x 128 = 12,288 bits in the paper's accounting).
type Design struct {
	Name   string
	R      int // per-slice index bits (14 in the paper)
	Slices int
	Arr    Arrangement
}

// KeysPerSliceRow is the paper's 96 keys per bucket.
const KeysPerSliceRow = 96

// ScoreBits is the per-entry payload width stored with the key.
const ScoreBits = 16

// Table3Designs are the four designs the paper evaluates.
var Table3Designs = []Design{
	{Name: "A", R: 14, Slices: 4, Arr: Vertical},
	{Name: "B", R: 14, Slices: 5, Arr: Vertical},
	{Name: "C", R: 14, Slices: 4, Arr: Horizontal},
	{Name: "D", R: 14, Slices: 5, Arr: Horizontal},
}

// Buckets returns the combined bucket count M.
func (d Design) Buckets() int {
	if d.Arr == Vertical {
		return d.Slices << uint(d.R)
	}
	return 1 << uint(d.R)
}

// Slots returns S, keys per combined bucket.
func (d Design) Slots() int {
	if d.Arr == Vertical {
		return KeysPerSliceRow
	}
	return KeysPerSliceRow * d.Slices
}

// Capacity returns M*S in keys.
func (d Design) Capacity() int { return d.Buckets() * d.Slots() }

// CapacityBits returns the physical key storage in bits (128 per key),
// the quantity Figure 8's area model consumes.
func (d Design) CapacityBits() float64 {
	return float64(d.Slices) * float64(int(1)<<uint(d.R)) * KeysPerSliceRow * 128
}

// djbIndex hashes the padded 16-byte key image with the DJB function —
// the §4.2 index generator. Its 31-bit output is reduced modulo the
// bucket count by the slice, with negligible bias.
func djbIndex() hash.Func {
	return hash.Func{
		F: func(key bitutil.Vec128) uint32 {
			return uint32(hash.DJBBytes(key.Bytes(KeyBytes * 8)))
		},
		R:     31,
		Label: "djb/trigram",
	}
}

// sliceConfig derives the simulator configuration for a design with an
// explicit slot count and probe limit (0 = unlimited, caram.NoProbing
// to disable probing).
func sliceConfig(d Design, slots, probeLimit int) caram.Config {
	slot := 1 + 128 + ScoreBits
	return caram.Config{
		IndexBits:  31, // documentation only; TotalRows governs geometry
		TotalRows:  d.Buckets(),
		RowBits:    slots*slot + 16,
		KeyBits:    128,
		DataBits:   ScoreBits,
		AuxBits:    16,
		Tech:       mem.DRAM,
		ProbeLimit: probeLimit,
		Index:      djbIndex(),
	}
}

// Evaluation is one computed row of Table 3 plus Figure 7's data.
type Evaluation struct {
	Design         Design
	Entries        int
	LoadFactor     float64 // alpha = N / (M*S)
	OverflowingPct float64
	SpilledPct     float64
	AMAL           float64
	Unplaced       int
	Slice          *caram.Slice
}

// Evaluate builds the design from the database and computes the
// Table 3 metrics.
func Evaluate(db []Entry, d Design) (*Evaluation, error) {
	return EvaluateWith(db, d, d.Slots(), 0)
}

// EvaluateWith is Evaluate with an explicit slots-per-bucket count (for
// S-vs-M sweeps at fixed capacity) and linear-probing bound (0 =
// unlimited, caram.NoProbing disables spilling).
func EvaluateWith(db []Entry, d Design, slots, probeLimit int) (*Evaluation, error) {
	slice, err := caram.New(sliceConfig(d, slots, probeLimit))
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Design: d, Entries: len(db), Slice: slice}
	sumAccesses := 0.0
	placed := 0
	for _, e := range db {
		rec := match.Record{
			Key:  bitutil.Exact(e.Key()),
			Data: bitutil.FromUint64(uint64(e.Score)),
		}
		disp, err := slice.Place(slice.Index(rec.Key.Value), rec)
		if err == caram.ErrFull {
			ev.Unplaced++
			continue
		}
		if err == caram.ErrExists {
			return nil, fmt.Errorf("trigram: duplicate entry %q", e.Text)
		}
		if err != nil {
			return nil, err
		}
		sumAccesses += float64(1 + disp)
		placed++
	}
	ev.LoadFactor = float64(len(db)) / float64(d.Buckets()*slots)
	p := slice.Placement()
	ev.OverflowingPct = p.OverflowingPct
	ev.SpilledPct = p.SpilledPct
	if placed > 0 {
		ev.AMAL = sumAccesses / float64(placed)
	}
	return ev, nil
}

// Lookup finds a trigram's score with a single CA-RAM search.
func Lookup(slice *caram.Slice, text string) (score uint16, rowsRead int, ok bool) {
	res := slice.Lookup(bitutil.Exact(Entry{Text: text}.Key()))
	return uint16(res.Record.Data.Uint64()), res.RowsRead, res.Found
}

// OccupancyHistogram returns the Figure 7 distribution: how many
// buckets hold each number of records (by hash, before spilling).
func (ev *Evaluation) OccupancyHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for _, load := range ev.Slice.HomeLoads() {
		h.Add(int(load))
	}
	return h
}
