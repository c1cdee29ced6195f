package cam

import (
	"math/rand"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/hash"
	"caram/internal/match"
)

func TestBankedBasics(t *testing.T) {
	// 4 partitions selected by key bits 6..7.
	sel := hash.NewBitSelect([]int{6, 7})
	b, err := NewBanked(16, 8, Ternary, sel)
	if err != nil {
		t.Fatal(err)
	}
	if b.Banks() != 4 {
		t.Fatalf("Banks = %d", b.Banks())
	}
	for i := 0; i < 32; i++ {
		rec := exact(uint64(i*8), uint64(i))
		if err := b.Insert(rec, 8); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 32 {
		t.Errorf("Len = %d", b.Len())
	}
	res := b.Search(bitutil.Exact(bitutil.FromUint64(5 * 8)))
	if !res.Found || res.Record.Data.Uint64() != 5 {
		t.Fatalf("search = %+v", res)
	}
	if msg := b.Verify(); msg != "" {
		t.Errorf("Verify: %s", msg)
	}
}

// The point of the scheme: one search activates one partition, so the
// cell activity is 1/Banks of a flat TCAM's.
func TestBankedPowerSaving(t *testing.T) {
	sel := hash.NewBitSelect([]int{6, 7})
	banked, _ := NewBanked(64, 8, Ternary, sel)
	flat := MustNew(Config{Entries: 256, KeyBits: 8, Kind: Ternary})
	for i := 0; i < 128; i++ {
		rec := exact(uint64(i), 0)
		if err := banked.Insert(rec, 4); err != nil {
			t.Fatal(err)
		}
		if err := flat.Insert(rec, 4); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := bitutil.Exact(bitutil.FromUint64(uint64(i)))
		if banked.Search(k).Found != flat.Search(k).Found {
			t.Fatal("banked and flat disagree")
		}
	}
	bankCells := banked.Stats().CellsActivated
	flatCells := flat.Stats().CellsActivated
	if bankCells*4 != flatCells {
		t.Errorf("banked activity %d, flat %d: want exactly 1/4", bankCells, flatCells)
	}
}

// Don't-care bits in the selection positions force duplication on
// insert and multi-partition searches — the same §4 cost CA-RAM pays.
func TestBankedDuplication(t *testing.T) {
	sel := hash.NewBitSelect([]int{6, 7})
	b, _ := NewBanked(8, 8, Ternary, sel)
	wild, _ := bitutil.ParseTernary("XX000000") // both selector bits masked
	if err := b.Insert(match.Record{Key: wild, Data: bitutil.FromUint64(9)}, 6); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 4 {
		t.Errorf("Len = %d, want one copy per partition", b.Len())
	}
	// Any concrete key in the class finds it, searching one partition.
	res := b.Search(bitutil.Exact(bitutil.FromUint64(0b01000000)))
	if !res.Found || res.Record.Data.Uint64() != 9 {
		t.Fatalf("search = %+v", res)
	}
	// A masked search key searches several partitions.
	query, _ := bitutil.ParseTernary("X1000000")
	before := b.Stats().Searches
	res = b.Search(query)
	if !res.Found {
		t.Fatal("masked search missed")
	}
	if got := b.Stats().Searches - before; got != 2 {
		t.Errorf("masked search activated %d partitions, want 2", got)
	}
}

func TestBankedLPMPriorityAcrossBanks(t *testing.T) {
	// Selector on bits 6..7; a short prefix masking those bits is
	// duplicated, and the LPM winner must still be the longest prefix.
	sel := hash.NewBitSelect([]int{6, 7})
	b, _ := NewBanked(8, 8, Ternary, sel)
	short, _ := bitutil.ParseTernary("XXXXXXXX")
	long, _ := bitutil.ParseTernary("0100XXXX")
	if err := b.Insert(match.Record{Key: short, Data: bitutil.FromUint64(1)}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(match.Record{Key: long, Data: bitutil.FromUint64(2)}, 4); err != nil {
		t.Fatal(err)
	}
	res := b.Search(bitutil.Exact(bitutil.FromUint64(0b01001111)))
	if !res.Found || res.Record.Data.Uint64() != 2 {
		t.Fatalf("LPM across banks = %+v", res)
	}
}

func TestNewBankedValidation(t *testing.T) {
	if _, err := NewBanked(8, 8, Ternary, nil); err == nil {
		t.Error("nil selector accepted")
	}
	big := make([]int, 9)
	for i := range big {
		big[i] = i
	}
	if _, err := NewBanked(8, 8, Ternary, hash.NewBitSelect(big)); err == nil {
		t.Error("9-bit selector accepted")
	}
	if _, err := NewBanked(0, 8, Ternary, hash.NewBitSelect([]int{0})); err == nil {
		t.Error("zero-entry banks accepted")
	}
}

func TestPrecomputed(t *testing.T) {
	p, err := NewPrecomputed(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = rng.Uint64() & 0xffff
		if err := p.Insert(exact(keys[i], uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 200 {
		t.Errorf("Len = %d", p.Len())
	}
	for i, k := range keys {
		res := p.Search(bitutil.FromUint64(k))
		if !res.Found {
			t.Fatalf("key %#x lost", k)
		}
		_ = i
	}
	if p.Search(bitutil.FromUint64(0xFFFF)).Found && !contains(keys, 0xFFFF) {
		t.Error("phantom hit")
	}
	// Activity: far fewer cells than a flat search of 200 entries each
	// time — the group sizes bound it.
	st := p.Stats()
	if st.CellsActivated >= st.Searches*200*16 {
		t.Error("no activity saving")
	}
	sum := 0
	for _, g := range p.groups {
		sum += len(g)
	}
	if sum != 200 {
		t.Errorf("group sizes sum to %d", sum)
	}
}

func TestPrecomputedRejectsTernary(t *testing.T) {
	p, _ := NewPrecomputed(8)
	wild, _ := bitutil.ParseTernary("1XXX0000")
	if err := p.Insert(match.Record{Key: wild}); err == nil {
		t.Error("ternary key accepted by binary scheme")
	}
	if _, err := NewPrecomputed(0); err == nil {
		t.Error("zero key bits accepted")
	}
}

func contains(xs []uint64, v uint64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
