package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"caram/internal/bitutil"
)

// These tests pin the slot comparator (SearchInto, SearchPrefixInto,
// AppendAll) to the slot-serial oracle (SearchSerial): for any layout,
// any row image — including raw random words never produced by
// WriteSlot — any ternary search key and any slot bound, the two paths
// must agree on the match vector, the priority encoder's output, the
// multi-match flag, the extracted record, the pass count and the slots
// tested.

func randomLayout(rng *rand.Rand) Layout {
	for {
		var kb int
		switch rng.Intn(3) {
		case 0:
			kb = 1 + rng.Intn(8) // small keys → many slots, S > 64
		case 1:
			kb = 1 + rng.Intn(32)
		default:
			kb = 1 + rng.Intn(128)
		}
		l := Layout{
			KeyBits:  kb,
			DataBits: rng.Intn(129),
			Ternary:  rng.Intn(2) == 1,
			AuxBits:  rng.Intn(65),
		}
		slots := 1 + rng.Intn(80)
		// Leave random slack below the aux field so slot regions do not
		// tile the row exactly.
		l.RowBits = l.AuxBits + slots*l.SlotBits() + rng.Intn(l.SlotBits())
		if l.Validate() == nil {
			return l
		}
	}
}

func randomVec(rng *rand.Rand) bitutil.Vec128 {
	return bitutil.FromParts(rng.Uint64(), rng.Uint64())
}

// randomTernary draws a search or stored key; width<=128 truncates, and
// sparse masks keep exact matches reachable.
func randomTernary(rng *rand.Rand, width int, ternary bool) bitutil.Ternary {
	k := bitutil.Ternary{Value: randomVec(rng).Trunc(width)}
	if ternary && rng.Intn(2) == 0 {
		k.Mask = randomVec(rng).And(randomVec(rng)).Trunc(width)
	}
	return k
}

// randomRow builds either a structured row via WriteSlot (duplicate keys
// planted to force multi-match) or raw random words (the kernel must
// agree with the oracle even on images WriteSlot cannot produce).
func randomRow(rng *rand.Rand, l Layout) (row []uint64, stored []bitutil.Ternary) {
	row = make([]uint64, bitutil.RowWords(l.RowBits))
	if rng.Intn(3) == 0 {
		for i := range row {
			row[i] = rng.Uint64()
		}
		for i := 0; i < l.Slots(); i++ {
			if rec, ok := l.ReadSlot(row, i); ok {
				stored = append(stored, rec.Key)
			}
		}
		return row, stored
	}
	for i := 0; i < l.Slots(); i++ {
		if rng.Intn(3) == 0 {
			continue // leave invalid
		}
		var k bitutil.Ternary
		if len(stored) > 0 && rng.Intn(3) == 0 {
			k = stored[rng.Intn(len(stored))] // duplicate → multi-match
		} else {
			k = randomTernary(rng, l.KeyBits, l.Ternary)
		}
		rec := Record{Key: k, Data: randomVec(rng).Trunc(l.DataBits)}
		if err := l.WriteSlot(row, i, rec); err != nil {
			continue
		}
		stored = append(stored, k)
	}
	if l.AuxBits > 0 {
		l.WriteAux(row, rng.Uint64())
	}
	return row, stored
}

// randomSearch draws search keys that cover hits, misses, masked
// searches, and cared-for bits above KeyBits (which must miss the whole
// row on both paths).
func randomSearch(rng *rand.Rand, l Layout, stored []bitutil.Ternary) bitutil.Ternary {
	switch rng.Intn(4) {
	case 0:
		if len(stored) > 0 {
			k := stored[rng.Intn(len(stored))]
			return bitutil.Ternary{Value: k.Value} // exact probe of a stored key
		}
		fallthrough
	case 1:
		return randomTernary(rng, l.KeyBits, true)
	case 2: // masked search key, any layout
		return bitutil.Ternary{
			Value: randomVec(rng).Trunc(l.KeyBits),
			Mask:  randomVec(rng).And(randomVec(rng)).Trunc(l.KeyBits),
		}
	default: // full-width 128-bit search, bits above KeyBits in play
		return bitutil.Ternary{
			Value: randomVec(rng),
			Mask:  randomVec(rng).And(randomVec(rng)),
		}
	}
}

// checkEquivalence runs one whole-row search through both paths and
// reports the first divergence.
func checkEquivalence(t testing.TB, l Layout, p int, row []uint64, search bitutil.Ternary) {
	t.Helper()
	checkBounded(t, l, p, row, search, l.Slots())
}

// checkBounded holds SearchPrefixInto(row, search, n) to SearchSerial over
// the same row with every slot from n up cleared — the oracle
// restricted to [0, n).
func checkBounded(t testing.TB, l Layout, p int, row []uint64, search bitutil.Ternary, n int) {
	t.Helper()
	kern := NewSearcher(l, p)
	var got Result
	kern.SearchPrefixInto(&got, row, search, n)
	cut := append(make([]uint64, 0, bitutil.RowWords(l.RowBits)), row...)
	cut = cut[:cap(cut)]
	for i := max(n, 0); i < l.Slots(); i++ {
		l.ClearSlot(cut, i)
	}
	want := newSerialOracle(l, p).SearchSerial(cut, search)

	ctx := func() string {
		return fmt.Sprintf("layout=%+v p=%d n=%d search=%s", l, p, n, search.String(128))
	}
	if got.First != want.First || got.Count != want.Count ||
		got.Multi() != want.Multi() || got.Matched() != want.Matched() {
		t.Fatalf("%s: kernel First=%d Count=%d, oracle First=%d Count=%d",
			ctx(), got.First, got.Count, want.First, want.Count)
	}
	if got.Passes != want.Passes || got.SlotsTested != want.SlotsTested {
		t.Fatalf("%s: kernel Passes=%d SlotsTested=%d, oracle Passes=%d SlotsTested=%d",
			ctx(), got.Passes, got.SlotsTested, want.Passes, want.SlotsTested)
	}
	if got.Record != want.Record {
		t.Fatalf("%s: kernel Record=%+v, oracle Record=%+v", ctx(), got.Record, want.Record)
	}
	if len(got.Vector) != len(want.Vector) {
		t.Fatalf("%s: vector length %d vs %d", ctx(), len(got.Vector), len(want.Vector))
	}
	for w := range got.Vector {
		if got.Vector[w] != want.Vector[w] {
			t.Fatalf("%s: vector word %d = %#x, oracle %#x",
				ctx(), w, got.Vector[w], want.Vector[w])
		}
	}
	if n < l.Slots() {
		return
	}
	// AppendAll must surface exactly the matched slots, in order.
	recs := kern.AppendAll(nil, &got, row, search)
	if len(recs) != want.Count {
		t.Fatalf("%s: AppendAll returned %d records, want %d", ctx(), len(recs), want.Count)
	}
	if want.Count > 0 && recs[0] != want.Record {
		t.Fatalf("%s: AppendAll[0]=%+v, want %+v", ctx(), recs[0], want.Record)
	}
}

// sameResult reports whether a kernel result equals the oracle's in
// every field a search writes.
func sameResult(got, want *Result) bool {
	return got.First == want.First && got.Count == want.Count && got.Passes == want.Passes &&
		got.SlotsTested == want.SlotsTested && got.Record == want.Record && slices.Equal(got.Vector, want.Vector)
}

func randomP(rng *rand.Rand, l Layout) int {
	switch rng.Intn(3) {
	case 0:
		return 0 // P = S
	case 1:
		return 1 // maximal pass count
	default:
		return 1 + rng.Intn(l.Slots()) // S > P in general
	}
}

// TestKernelMatchesSerialRandom sweeps many random scenarios with
// readable failure output.
func TestKernelMatchesSerialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		l := randomLayout(rng)
		p := randomP(rng, l)
		row, stored := randomRow(rng, l)
		for s := 0; s < 4; s++ {
			checkEquivalence(t, l, p, row, randomSearch(rng, l, stored))
		}
	}
}

// TestKernelMatchesSerialQuick states the equivalence as a testing/quick
// property over the seed space.
func TestKernelMatchesSerialQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLayout(rng)
		p := randomP(rng, l)
		row, stored := randomRow(rng, l)
		search := randomSearch(rng, l, stored)

		var got Result
		NewSearcher(l, p).SearchInto(&got, row, search)
		want := newSerialOracle(l, p).SearchSerial(row, search)
		return sameResult(&got, &want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// slotKernelProperty is the differential aimed at one family of
// layouts: random occupancy, rows cut short of the compiled image,
// masked search keys, "impossible" keys caring about bits above
// KeyBits, and every slot bound n in {0, 1, S-1, S}. Vector, First,
// Count, SlotsTested, Passes and Record must equal those of SearchSerial
// restricted to [0, n), for any P and for the bound the caram layer
// hands down.
func slotKernelProperty(t *testing.T, layout func(*rand.Rand) Layout) func(int64) bool {
	return func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := layout(rng)
		row, stored := randomRow(rng, l)
		if rng.Intn(4) == 0 {
			row = row[:rng.Intn(len(row)+1)] // short row: missing words read as zero
		}
		full := append(append([]uint64(nil), row...), make([]uint64, bitutil.RowWords(l.RowBits)-len(row))...)
		s := l.Slots()
		for i := 0; i < 4; i++ {
			search := randomSearch(rng, l, stored)
			for _, n := range []int{0, 1, s - 1, s} {
				checkBounded(t, l, randomP(rng, l), row, search, n)
			}
			n := l.UsedSlots(full) // the bound the caram layer hands down
			var got Result
			NewSearcher(l, 0).SearchPrefixInto(&got, row, search, n)
			want := newSerialOracle(l, 0).SearchSerial(row, search)
			if got.First != want.First || got.Count != want.Count ||
				got.SlotsTested != want.SlotsTested || got.Record != want.Record {
				t.Errorf("layout=%+v n=%d search=%s: Searcher %+v, oracle %+v", l, n, search.String(128), got, want)
			}
		}
		return !t.Failed()
	}
}

// TestSlotKernelMatchesSerialQuick sweeps every compiled variant:
// binary and ternary, KeyBits 1..128, DataBits 0..128, AuxBits 0..64,
// slot widths that straddle words.
func TestSlotKernelMatchesSerialQuick(t *testing.T) {
	if err := quick.Check(slotKernelProperty(t, randomLayout), &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNarrowKernelMatchesSerialQuick concentrates the same property on
// the layouts MSEARCH serves: binary, one-word keys and data.
func TestNarrowKernelMatchesSerialQuick(t *testing.T) {
	narrow := func(rng *rand.Rand) Layout {
		l := Layout{KeyBits: 1 + rng.Intn(64), DataBits: rng.Intn(65), AuxBits: rng.Intn(65)}
		l.RowBits = l.AuxBits + (1+rng.Intn(80))*l.SlotBits() + rng.Intn(l.SlotBits())
		return l
	}
	if err := quick.Check(slotKernelProperty(t, narrow), &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelSelection pins what a layout compiles to: the mask fields
// are located only on ternary layouts, and keys wider than a word take
// the two-word loops.
func TestKernelSelection(t *testing.T) {
	for _, tc := range []struct {
		l            Layout
		ternary, two bool
	}{
		{Layout{RowBits: 792, KeyBits: 64, DataBits: 32, AuxBits: 16}, false, false},
		{Layout{RowBits: 512, KeyBits: 1, DataBits: 128}, false, false},
		{Layout{RowBits: 2048, KeyBits: 65, DataBits: 8}, false, true},
		{Layout{RowBits: 2048, KeyBits: 32, DataBits: 8, Ternary: true}, true, false},
		{Layout{RowBits: 64 * 242, KeyBits: 104, DataBits: 32, Ternary: true}, true, true},
		{Layout{RowBits: 4096, KeyBits: 128, DataBits: 0, Ternary: true, AuxBits: 8}, true, true},
	} {
		m := newMatcher(tc.l, 0)
		if m.two != tc.two || len(m.slots) != tc.l.Slots() {
			t.Errorf("layout %+v: two=%v over %d slots, want %v over %d", tc.l, m.two, len(m.slots), tc.two, tc.l.Slots())
		}
		last := m.slots[len(m.slots)-1]
		if located := last.mw != 0 || last.ms != 0; located != tc.ternary {
			t.Errorf("layout %+v: stored-mask field located=%v, want %v", tc.l, located, tc.ternary)
		}
		if end := int(max(last.kw2, last.mw2)); end >= m.words {
			t.Errorf("layout %+v: last slot reads word %d of a %d-word row", tc.l, end, m.words)
		}
	}
}

// TestKernelExpansionCacheAcrossRows reuses one Searcher and one Result
// for a probe chain (same key, many rows) and interleaves key changes,
// the way Slice.Lookup does. The row-image kernel cached its key
// expansion between searches; the slot comparator carries nothing from
// one search to the next — neither in the bank nor in the reused
// scratch — and this holds it to that.
func TestKernelExpansionCacheAcrossRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		l := randomLayout(rng)
		p := randomP(rng, l)
		kern := NewSearcher(l, p)
		var got Result
		oracle := newSerialOracle(l, p)
		var searches []bitutil.Ternary
		var rows [][]uint64
		var allStored []bitutil.Ternary
		for r := 0; r < 4; r++ {
			row, stored := randomRow(rng, l)
			rows = append(rows, row)
			allStored = append(allStored, stored...)
		}
		for s := 0; s < 3; s++ {
			searches = append(searches, randomSearch(rng, l, allStored))
		}
		for _, search := range searches {
			for _, row := range rows { // same key across the chain
				kern.SearchInto(&got, row, search)
				if want := oracle.SearchSerial(row, search); !sameResult(&got, &want) {
					t.Fatalf("layout=%+v search=%s: kernel %+v oracle %+v", l, search.String(128), got, want)
				}
			}
		}
	}
}

// fuzzReader deals bytes from the fuzz corpus; exhausted reads return
// zero so every input shapes a valid scenario.
type fuzzReader struct{ data []byte }

func (f *fuzzReader) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f.byte())
	}
	return v
}

// FuzzKernelVsSerial lets the fuzzer shape the layout, the slot bound,
// the raw row image, and the search key directly from corpus bytes.
func FuzzKernelVsSerial(f *testing.F) {
	f.Add([]byte{4, 8, 1, 0, 0, 3, 0xff, 0xaa, 0x55, 0, 1, 2, 3})
	f.Add([]byte{64, 32, 0, 8, 1, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{128, 128, 1, 64, 0, 1, 0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{1, 0, 0, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &fuzzReader{data}
		l := Layout{
			KeyBits:  1 + int(fz.byte())%128,
			DataBits: int(fz.byte()) % 129,
			Ternary:  fz.byte()&1 == 1,
			AuxBits:  int(fz.byte()) % 65,
		}
		slots := 1 + int(fz.byte())%70
		l.RowBits = l.AuxBits + slots*l.SlotBits() + int(fz.byte())%l.SlotBits()
		if l.Validate() != nil {
			t.Skip()
		}
		p := 1 + int(fz.byte())%l.Slots()
		n := int(fz.byte()) % (l.Slots() + 1)
		row := make([]uint64, bitutil.RowWords(l.RowBits))
		for i := range row {
			row[i] = fz.u64()
		}
		searches := []bitutil.Ternary{
			{Value: bitutil.FromParts(fz.u64(), fz.u64()),
				Mask: bitutil.FromParts(fz.u64(), fz.u64())},
		}
		// A truncated variant probes within the key width, and slot 0's
		// own key (when valid) probes a guaranteed hit.
		searches = append(searches, bitutil.Ternary{
			Value: searches[0].Value.Trunc(l.KeyBits),
			Mask:  searches[0].Mask.Trunc(l.KeyBits),
		})
		if rec, ok := l.ReadSlot(row, 0); ok {
			searches = append(searches, bitutil.Ternary{Value: rec.Key.Value})
		}
		for _, search := range searches {
			checkEquivalence(t, l, p, row, search)
			checkBounded(t, l, p, row, search, n)
		}
	})
}
