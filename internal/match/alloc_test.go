package match

import (
	"testing"

	"caram/internal/bitutil"
)

// TestSearchZeroAlloc is the alloc-regression guard for the core match
// path: one row search through the slot comparator must not allocate,
// hit or miss, on any compiled variant — binary and ternary 64-bit
// keys, and the packet classifier's ternary 104-bit key — once the
// caller's Result and record buffer exist.
// `make alloc-guard` (part of `make ci`) runs every *ZeroAlloc test.
func TestSearchZeroAlloc(t *testing.T) {
	for _, l := range []Layout{
		{RowBits: 8*(1+64+32) + 8, KeyBits: 64, DataBits: 32},
		{RowBits: 4*(1+2*64+32) + 8, KeyBits: 64, DataBits: 32, Ternary: true},
		{RowBits: 64*(1+2*104+32) + 8, KeyBits: 104, DataBits: 32, Ternary: true, AuxBits: 8},
	} {
		sr := NewSearcher(l, 0)
		var res Result
		row := make([]uint64, bitutil.RowWords(l.RowBits))
		for i := 0; i < l.Slots(); i++ {
			if err := l.WriteSlot(row, i, Record{
				Key:  bitutil.Ternary{Value: bitutil.FromUint64(uint64(0x1000 + i))},
				Data: bitutil.FromUint64(uint64(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		hit := bitutil.Ternary{Value: bitutil.FromUint64(0x1001)}
		miss := bitutil.Ternary{Value: bitutil.FromUint64(0xffff)}
		dst := make([]Record, 0, 1)
		if n := testing.AllocsPerRun(200, func() {
			sr.SearchInto(&res, row, hit)
			sr.SearchInto(&res, row, miss)
			sr.SearchPrefixInto(&res, row, hit, 2)
			dst = sr.AppendAll(dst[:0], &res, row, hit)
		}); n != 0 {
			t.Fatalf("%+v: Search allocated %.1f times per run, want 0", l, n)
		}
	}
}
