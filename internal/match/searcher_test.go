package match

import (
	"testing"

	"caram/internal/bitutil"
)

func newRow(t *testing.T, l Layout, recs ...Record) []uint64 {
	t.Helper()
	row := make([]uint64, bitutil.RowWords(l.RowBits))
	for i, r := range recs {
		if err := l.WriteSlot(row, i, r); err != nil {
			t.Fatal(err)
		}
	}
	return row
}

func exactRec(key, data uint64) Record {
	return Record{Key: bitutil.Exact(bitutil.FromUint64(key)), Data: bitutil.FromUint64(data)}
}

// searchRow is SearchInto on fresh scratch, for a test that reads one
// result.
func searchRow(sr *Searcher, row []uint64, search bitutil.Ternary) Result {
	var res Result
	sr.SearchInto(&res, row, search)
	return res
}

func TestSearchExact(t *testing.T) {
	l := Layout{RowBits: 512, KeyBits: 32, DataBits: 16}
	sr := NewSearcher(l, 0)
	row := newRow(t, l, exactRec(10, 100), exactRec(20, 200), exactRec(30, 300))

	res := searchRow(sr, row, bitutil.Exact(bitutil.FromUint64(20)))
	if !res.Matched() || res.First != 1 || res.Count != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Record.Data.Uint64() != 200 {
		t.Errorf("extracted data = %v", res.Record.Data)
	}
	if res.Multi() {
		t.Error("single match flagged as multi")
	}

	miss := searchRow(sr, row, bitutil.Exact(bitutil.FromUint64(99)))
	if miss.Matched() || miss.First != -1 || miss.Count != 0 {
		t.Errorf("miss result = %+v", miss)
	}
}

func TestSearchSkipsInvalidSlots(t *testing.T) {
	l := Layout{RowBits: 512, KeyBits: 32}
	sr := NewSearcher(l, 0)
	row := make([]uint64, bitutil.RowWords(l.RowBits))
	// Slot 0 left invalid but with a matching bit pattern in its key
	// field: write then clear.
	if err := l.WriteSlot(row, 0, exactRec(7, 0)); err != nil {
		t.Fatal(err)
	}
	l.ClearSlot(row, 0)
	if err := l.WriteSlot(row, 2, exactRec(7, 0)); err != nil {
		t.Fatal(err)
	}
	res := searchRow(sr, row, bitutil.Exact(bitutil.FromUint64(7)))
	if res.First != 2 || res.Count != 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestSearchTernaryAndMultiMatch(t *testing.T) {
	l := Layout{RowBits: 1024, KeyBits: 8, DataBits: 8, Ternary: true}
	sr := NewSearcher(l, 0)
	k1, _ := bitutil.ParseTernary("110XX000")
	k2, _ := bitutil.ParseTernary("1100X000")
	k3, _ := bitutil.ParseTernary("00000000")
	row := newRow(t, l,
		Record{Key: k1, Data: bitutil.FromUint64(1)},
		Record{Key: k2, Data: bitutil.FromUint64(2)},
		Record{Key: k3, Data: bitutil.FromUint64(3)},
	)
	res := searchRow(sr, row, bitutil.Exact(bitutil.FromUint64(0b11001000)))
	if res.Count != 2 || !res.Multi() {
		t.Fatalf("result = %+v", res)
	}
	if res.First != 0 || res.Record.Data.Uint64() != 1 {
		t.Errorf("priority encode picked slot %d", res.First)
	}
	if res.Vector[0] != 0b011 {
		t.Errorf("vector = %b", res.Vector[0])
	}
}

func TestSearchWithMaskedSearchKey(t *testing.T) {
	l := Layout{RowBits: 512, KeyBits: 16}
	sr := NewSearcher(l, 0)
	row := newRow(t, l, exactRec(0x1234, 0), exactRec(0x1235, 0), exactRec(0xff35, 0))
	// Search key masking: low 4 bits don't care.
	search := bitutil.NewTernary(bitutil.FromUint64(0x1230), bitutil.FromUint64(0x000f))
	res := searchRow(sr, row, search)
	if res.Count != 2 {
		t.Errorf("masked search matched %d, want 2", res.Count)
	}
}

func TestSearchAll(t *testing.T) {
	l := Layout{RowBits: 512, KeyBits: 16, DataBits: 16}
	sr := NewSearcher(l, 0)
	row := newRow(t, l, exactRec(5, 1), exactRec(6, 2), exactRec(5, 3))
	var res Result
	all := sr.AppendAll(nil, &res, row, bitutil.Exact(bitutil.FromUint64(5)))
	if len(all) != 2 || all[0].Data.Uint64() != 1 || all[1].Data.Uint64() != 3 || res.Count != 2 {
		t.Errorf("AppendAll = %+v (Count %d)", all, res.Count)
	}
	// Appends after what dst holds; a miss appends nothing.
	if got := sr.AppendAll(all[:1], &res, row, bitutil.Exact(bitutil.FromUint64(6))); len(got) != 2 || got[1].Data.Uint64() != 2 {
		t.Errorf("AppendAll onto dst = %+v", got)
	}
	if got := sr.AppendAll(nil, &res, row, bitutil.Exact(bitutil.FromUint64(9))); got != nil || res.Matched() {
		t.Errorf("AppendAll miss = %+v", got)
	}
}

func TestPassesWithFewProcessors(t *testing.T) {
	l := Layout{RowBits: 33 * 10, KeyBits: 9} // 10-bit slots, 33 slots
	if l.Slots() != 33 {
		t.Fatalf("slots = %d", l.Slots())
	}
	row := make([]uint64, bitutil.RowWords(l.RowBits))
	key := bitutil.Exact(bitutil.Vec128{})
	if res := searchRow(NewSearcher(l, 8), row, key); res.Passes != 5 { // ceil(33/8)
		t.Errorf("Passes = %d, want 5", res.Passes)
	}
	if res := searchRow(NewSearcher(l, 0), row, key); res.Passes != 1 { // default P = S
		t.Errorf("default Passes = %d, want 1", res.Passes)
	}
}

func TestPriorityEncode(t *testing.T) {
	cases := []struct {
		v    []uint64
		want int
	}{
		{[]uint64{0}, -1},
		{nil, -1},
		{[]uint64{1}, 0},
		{[]uint64{0b1000}, 3},
		{[]uint64{0, 1}, 64},
		{[]uint64{0, 0, 1 << 10}, 138},
	}
	for _, c := range cases {
		if got := PriorityEncode(c.v); got != c.want {
			t.Errorf("PriorityEncode(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestVectorBeyond64Slots(t *testing.T) {
	// 96-slot row (trigram-style geometry, scaled down): the match
	// vector must span multiple words.
	l := Layout{RowBits: 96 * 9, KeyBits: 8}
	if l.Slots() != 96 {
		t.Fatalf("slots = %d", l.Slots())
	}
	sr := NewSearcher(l, 0)
	row := make([]uint64, bitutil.RowWords(l.RowBits))
	if err := l.WriteSlot(row, 80, exactRec(0x42, 0)); err != nil {
		t.Fatal(err)
	}
	res := searchRow(sr, row, bitutil.Exact(bitutil.FromUint64(0x42)))
	if res.First != 80 {
		t.Errorf("First = %d", res.First)
	}
	if res.Vector[1] != 1<<16 {
		t.Errorf("vector word 1 = %b", res.Vector[1])
	}
}
