package match

import (
	"fmt"
	"math/rand"
	"testing"

	"caram/internal/bitutil"
)

// The write path's two obligations in this package. Searcher.Locate —
// the comparators propose, exact equality confirms — is held to the
// slot-serial scan it replaced, which survives here as the oracle, the
// way SearchSerial does for the matcher. And the field writers behind
// WriteSlot, ClearSlot and WriteAux are held to bitutil.SetBits, the
// generic scatter they replaced.

// oracleLocate is the ReadSlot loop Slice.locate and Reader.Contains ran
// before they moved onto the comparator: the lowest slot below n whose
// decoded key equals key exactly.
func oracleLocate(l Layout, row []uint64, key bitutil.Ternary, n int) int {
	for i := 0; i < n && i < l.Slots(); i++ {
		if rec, ok := l.ReadSlot(row, i); ok && rec.Key.Equal(key) {
			return i
		}
	}
	return -1
}

// variantLayout draws a layout that compiles to one chosen loop body:
// binary or ternary, key in one word or two.
func variantLayout(rng *rand.Rand, ternary, two bool) Layout {
	for {
		l := Layout{KeyBits: 1 + rng.Intn(64), DataBits: rng.Intn(129), Ternary: ternary, AuxBits: rng.Intn(65)}
		if two {
			l.KeyBits += 64
		}
		l.RowBits = l.AuxBits + (1+rng.Intn(70))*l.SlotBits() + rng.Intn(l.SlotBits())
		if l.Validate() == nil {
			return l
		}
	}
}

// locateKeys draws the keys worth locating in a row: every flavour of
// search key the kernel suites use (masked keys on binary layouts and
// cared-for bits above KeyBits among them), each stored key exactly as
// stored, and each stored key bent so that it still matches its slot
// but no longer equals it — the value alone (a ternary record whose
// stored mask covers the difference), and with a mask bit added.
func locateKeys(rng *rand.Rand, l Layout, stored []bitutil.Ternary) []bitutil.Ternary {
	keys := []bitutil.Ternary{randomSearch(rng, l, stored), randomSearch(rng, l, stored)}
	rng.Shuffle(len(stored), func(i, j int) { stored[i], stored[j] = stored[j], stored[i] })
	for _, k := range stored[:min(len(stored), 5)] {
		keys = append(keys, k, bitutil.Ternary{Value: k.Value},
			bitutil.Ternary{Value: k.Value, Mask: k.Mask.WithBit(rng.Intn(l.KeyBits), 1)})
		if !k.Mask.IsZero() {
			// A value that differs from the stored one only under the
			// stored mask: matches, never equals.
			keys = append(keys, bitutil.Ternary{Value: k.Value.Or(k.Mask)})
		}
	}
	return keys
}

// TestKernelLocateMatchesOracle: on every compiled variant, for
// structured and raw random rows, every slot bound and every key of
// locateKeys, Locate returns the oracle's slot and leaves the row's
// record count in res.SlotsTested; a Searcher keeps no statistics, so
// there is nothing else for it to have moved.
func TestKernelLocateMatchesOracle(t *testing.T) {
	for _, v := range []struct{ ternary, two bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
		t.Run(fmt.Sprintf("ternary=%v/two=%v", v.ternary, v.two), func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			for trial := 0; trial < 24; trial++ {
				l := variantLayout(rng, v.ternary, v.two)
				if m := newMatcher(l, 0); m.two != v.two || m.layout.Ternary != v.ternary {
					t.Fatalf("layout %+v compiled to two=%v", l, m.two)
				}
				sr := NewSearcher(l, randomP(rng, l))
				row, stored := randomRow(rng, l)
				keys := locateKeys(rng, l, stored)
				if i, j := rng.Intn(l.Slots()), rng.Intn(l.Slots()); v.ternary && i < j {
					// The equal slot behind a hit that is not it: a record
					// that cares about nothing covers every key.
					k := bitutil.Ternary{Value: randomVec(rng).Trunc(l.KeyBits)}
					l.WriteSlot(row, i, Record{Key: bitutil.Ternary{Mask: bitutil.Mask(l.KeyBits)}}) //nolint:errcheck
					l.WriteSlot(row, j, Record{Key: k})                                              //nolint:errcheck
					keys = append(keys, k)
				}
				var res Result
				for _, key := range keys {
					for n := 0; n <= l.Slots(); n++ {
						got, want := sr.Locate(&res, row, key, n), oracleLocate(l, row, key, n)
						if got != want {
							t.Fatalf("layout=%+v n=%d key=%s: Locate = %d, oracle %d", l, n, key.String(128), got, want)
						}
						used := 0
						for i := 0; i < n; i++ {
							if l.SlotValid(row, i) {
								used++
							}
						}
						if res.SlotsTested != used {
							t.Fatalf("layout=%+v n=%d: SlotsTested = %d, row holds %d records below the bound", l, n, res.SlotsTested, used)
						}
					}
				}
			}
		})
	}
}

// TestKernelLocateExactNotMatch pins the three ways a hit is not the
// key, on hand-built rows: a masked key on a binary layout equals
// nothing; a stored mask that covers the difference matches but does
// not equal, and the equal copy behind it is the one found; equal
// copies resolve to the lowest slot.
func TestKernelLocateExactNotMatch(t *testing.T) {
	vec := bitutil.FromUint64
	var res Result

	bin := Layout{RowBits: 4*(1+16+8) + 8, KeyBits: 16, DataBits: 8, AuxBits: 8}
	row := make([]uint64, bitutil.RowWords(bin.RowBits))
	for i, k := range []uint64{0x1234, 0x1230, 0x1234} {
		if err := bin.WriteSlot(row, i, Record{Key: bitutil.Exact(vec(k)), Data: vec(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	sr := NewSearcher(bin, 0)
	if got := sr.Locate(&res, row, bitutil.Exact(vec(0x1234)), 4); got != 0 {
		t.Errorf("binary: equal copies resolved to slot %d, want 0", got)
	}
	if got := sr.Locate(&res, row, bitutil.NewTernary(vec(0x1230), vec(0xf)), 4); got != -1 || res.Count != 3 {
		t.Errorf("binary: a masked key located slot %d with %d hits, want -1 with all 3 proposed", got, res.Count)
	}

	ter := Layout{RowBits: 4*(1+16+16+8) + 8, KeyBits: 16, DataBits: 8, Ternary: true, AuxBits: 8}
	row = make([]uint64, bitutil.RowWords(ter.RowBits))
	for i, k := range []bitutil.Ternary{
		bitutil.NewTernary(vec(0x1200), vec(0xff)), // 12xx: matches 0x1234, is not it
		bitutil.Exact(vec(0x1234)),
		bitutil.NewTernary(vec(0x1200), vec(0xff)),
	} {
		if err := ter.WriteSlot(row, i, Record{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	sr = NewSearcher(ter, 0)
	if got := sr.Locate(&res, row, bitutil.Exact(vec(0x1234)), 4); got != 1 || res.First != 0 {
		t.Errorf("ternary: exact key located slot %d (first hit %d), want 1 behind the covering 12xx in slot 0", got, res.First)
	}
	if got := sr.Locate(&res, row, bitutil.NewTernary(vec(0x1200), vec(0xff)), 4); got != 0 {
		t.Errorf("ternary: 12xx located slot %d, want 0", got)
	}
	if got := sr.Locate(&res, row, bitutil.NewTernary(vec(0x1200), vec(0xfff)), 4); got != -1 {
		t.Errorf("ternary: 1xxx located slot %d, want -1 (stored masks are narrower)", got)
	}
	if got := sr.Locate(&res, row, bitutil.Exact(vec(0x1234)), 1); got != -1 {
		t.Errorf("ternary: bound 1 located slot %d, want -1", got)
	}
}

// setBitsWriteSlot, setBitsClearSlot and setBitsWriteAux are the field
// writers as they were: generic bitutil.SetBits scatters of Vec128s.
// (ClearSlot's one SetBits stopped at 128 bits; the oracle clears the
// whole slot, as the compiled writer does and the comment always said.)
func setBitsWriteSlot(l Layout, row []uint64, i int, rec Record) {
	off := l.slotBase(i)
	bitutil.SetBits(row, off, 1, bitutil.FromUint64(1))
	off++
	bitutil.SetBits(row, off, l.KeyBits, rec.Key.Value.AndNot(rec.Key.Mask))
	off += l.KeyBits
	if l.Ternary {
		bitutil.SetBits(row, off, l.KeyBits, rec.Key.Mask)
		off += l.KeyBits
	}
	bitutil.SetBits(row, off, l.DataBits, rec.Data)
}

func setBitsClearSlot(l Layout, row []uint64, i int) {
	for off, end := l.slotBase(i), l.slotBase(i+1); off < end; off += 128 {
		bitutil.SetBits(row, off, min(end-off, 128), bitutil.Vec128{})
	}
}

func setBitsWriteAux(l Layout, row []uint64, v uint64) {
	bitutil.SetBits(row, l.RowBits-l.AuxBits, l.AuxBits, bitutil.FromUint64(v))
}

// TestFieldWritersMatchSetBits: WriteSlot, ClearSlot and WriteAux leave
// a row — random words to start with, sometimes cut short of the layout
// — word for word as the SetBits writers leave it, over every variant,
// every slot, and records with bits above the field widths.
func TestFieldWritersMatchSetBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		l := variantLayout(rng, trial&1 == 1, trial&2 == 2)
		got := make([]uint64, bitutil.RowWords(l.RowBits))
		for i := range got {
			got[i] = rng.Uint64()
		}
		if rng.Intn(4) == 0 {
			got = got[:rng.Intn(len(got)+1)] // writes past the end are dropped
		}
		want := append([]uint64(nil), got...)
		same := func(op string) {
			t.Helper()
			for w := range got {
				if got[w] != want[w] {
					t.Fatalf("layout=%+v after %s: word %d = %#x, SetBits writer %#x", l, op, w, got[w], want[w])
				}
			}
		}
		for step := 0; step < 24; step++ {
			i := rng.Intn(l.Slots())
			switch rng.Intn(3) {
			case 0:
				rec := Record{Key: bitutil.Ternary{Value: randomVec(rng)}, Data: randomVec(rng)}
				if l.Ternary {
					rec.Key.Mask = randomVec(rng).And(randomVec(rng))
				}
				if err := l.WriteSlot(got, i, rec); err != nil {
					t.Fatal(err)
				}
				setBitsWriteSlot(l, want, i, rec)
				same(fmt.Sprintf("WriteSlot(%d)", i))
			case 1:
				l.ClearSlot(got, i)
				setBitsClearSlot(l, want, i)
				same(fmt.Sprintf("ClearSlot(%d)", i))
			default:
				v := rng.Uint64()
				l.WriteAux(got, v)
				setBitsWriteAux(l, want, v)
				same("WriteAux")
			}
		}
	}
}

// TestClearSlotClearsWideSlots: a slot wider than 128 bits is zeroed to
// its last bit, and not one bit beyond.
func TestClearSlotClearsWideSlots(t *testing.T) {
	l := Layout{RowBits: 3*(1+104+104+32) + 16, KeyBits: 104, DataBits: 32, Ternary: true, AuxBits: 16}
	row := make([]uint64, bitutil.RowWords(l.RowBits))
	for i := range row {
		row[i] = ^uint64(0)
	}
	l.ClearSlot(row, 1)
	for b := 0; b < l.RowBits; b++ {
		in := b >= l.slotBase(1) && b < l.slotBase(2)
		if set := row[b/64]>>(b%64)&1 == 1; set == in {
			t.Fatalf("bit %d (slot 1 spans [%d, %d)): set=%v", b, l.slotBase(1), l.slotBase(2), set)
		}
	}
}
