package mem

import (
	"maps"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Rows: 0, RowBits: 64},
		{Rows: -1, RowBits: 64},
		{Rows: 4, RowBits: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := New(Config{Rows: 8, RowBits: 100}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDefaultTiming(t *testing.T) {
	a := MustNew(Config{Rows: 2, RowBits: 64, Tech: DRAM})
	if got := a.Timing(); got.MinInterval != 6 || got.AccessCycles != 6 {
		t.Errorf("DRAM timing = %+v", got)
	}
	b := MustNew(Config{Rows: 2, RowBits: 64, Tech: SRAM})
	if got := b.Timing(); got.MinInterval != 1 {
		t.Errorf("SRAM timing = %+v", got)
	}
}

func TestTechnologyString(t *testing.T) {
	if SRAM.String() != "SRAM" || DRAM.String() != "DRAM" {
		t.Error("Technology names wrong")
	}
	if Technology(9).String() == "" {
		t.Error("unknown technology should still render")
	}
}

func TestRowReadWrite(t *testing.T) {
	a := MustNew(Config{Rows: 4, RowBits: 130}) // 3 words per row
	a.LoadRow(2, []uint64{1, 2, 3})
	row, ok := a.FetchRow(2)
	if !ok || len(row) != 3 || row[0] != 1 || row[1] != 2 || row[2] != 3 {
		t.Errorf("row = %v ok=%v", row, ok)
	}
	if got, _ := a.FetchRow(1); got[0] != 0 {
		t.Error("neighbor row affected")
	}
	// An update window publishes the scratch over the whole row.
	w := a.BeginRowUpdate(2)
	w[0], w[1], w[2] = 9, 0, 0
	a.CommitRowUpdate(2)
	row = a.PeekRow(2)
	if row[0] != 9 || row[1] != 0 || row[2] != 0 {
		t.Errorf("updated row = %v", row)
	}
	if a.PeekRow(3)[0] != 0 || a.PeekRow(1)[2] != 0 {
		t.Error("update spilled into a neighbor row")
	}
}

func TestStatsAccounting(t *testing.T) {
	a := MustNew(Config{Rows: 4, RowBits: 64, Tech: DRAM})
	a.FetchRow(0)
	a.FetchRow(1)
	a.BeginRowUpdate(2)[0] = 7
	a.CommitRowUpdate(2)
	a.ReadWord(0)
	a.WriteWord(1, 5)
	s := a.Stats()
	if s.RowReads != 2 || s.RowWrites != 1 || s.WordReads != 1 || s.WordWrites != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Accesses() != 3 {
		t.Errorf("Accesses = %d", s.Accesses())
	}
	if s.Cycles != 5*6 {
		t.Errorf("Cycles = %d, want 30", s.Cycles)
	}
	a.ResetStats()
	if a.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestPeekDoesNotCharge(t *testing.T) {
	a := MustNew(Config{Rows: 2, RowBits: 64})
	a.PeekRow(0)
	if a.Stats().Accesses() != 0 {
		t.Error("PeekRow charged an access")
	}
}

func TestClear(t *testing.T) {
	a := MustNew(Config{Rows: 2, RowBits: 64})
	a.LoadRow(0, []uint64{1})
	a.LoadRow(1, []uint64{2})
	a.ResetStats()
	a.Clear()
	if a.PeekRow(0)[0] != 0 || a.PeekRow(1)[0] != 0 {
		t.Error("Clear left data")
	}
	if a.Stats().Accesses() != 0 {
		t.Error("Clear charged accesses")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := MustNew(Config{Rows: 2, RowBits: 64})
	for name, f := range map[string]func(){
		"FetchRow":  func() { a.FetchRow(2) },
		"ReadWord":  func() { a.ReadWord(99) },
		"WriteWord": func() { a.WriteWord(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSizeAndWords(t *testing.T) {
	a := MustNew(Config{Rows: 16, RowBits: 1600})
	if a.SizeBits() != 16*1600 {
		t.Errorf("SizeBits = %d", a.SizeBits())
	}
	if a.Words() != 16*25 {
		t.Errorf("Words = %d", a.Words())
	}
	if a.Rows() != 16 || a.RowBits() != 1600 {
		t.Error("accessors wrong")
	}
}

// Property: word-mode writes land where row-mode reads see them.
func TestWordRowConsistencyQuick(t *testing.T) {
	a := MustNew(Config{Rows: 8, RowBits: 128}) // 2 words/row
	f := func(addrRaw uint8, v uint64) bool {
		addr := int(addrRaw) % a.Words()
		a.WriteWord(addr, v)
		row := a.PeekRow(uint32(addr / 2))
		return row[addr%2] == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a commit leaves storage equal to the scratch the writer
// mutated — every word, though only the changed ones are stored — moves
// the row's version by two whether or not anything changed, and touches
// no other row.
func TestCommitRowUpdatePublishesScratchQuick(t *testing.T) {
	a := MustNew(Config{Rows: 4, RowBits: 13 * 64})
	for w := 0; w < a.Words(); w++ {
		a.WriteWord(w, uint64(w)*0x9e3779b97f4a7c15)
	}
	f := func(rowRaw uint8, touch uint16, v uint64, charged bool) bool {
		idx := uint32(rowRaw) % 4
		before := append([]uint64(nil), a.PeekWords()...)
		ver := a.RowVersion(idx)
		row := a.BeginRowMaint
		if charged {
			row = a.BeginRowUpdate
		}
		scratch := row(idx)
		for w := range scratch {
			if touch>>uint(w)&1 == 1 { // touch == 0: a commit that changes nothing
				scratch[w] ^= v
			}
		}
		want := append([]uint64(nil), scratch...)
		if a.RowVersion(idx) != ver+1 {
			return false
		}
		a.CommitRowUpdate(idx)
		for w, got := range a.PeekWords() {
			exp := before[w]
			if r := w / a.RowWords(); uint32(r) == idx {
				exp = want[w%a.RowWords()]
			}
			if got != exp {
				return false
			}
		}
		return a.RowVersion(idx) == ver+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPrefetchHintsRowLines holds the hint set Prefetch issues, through
// hintRange and the walk prefetch makes over it: a row of up to 256 B
// gets every line it spans, a wider one its first line and its aux
// (last) line, and no hint leaves the array. Nine rows of an odd width
// put a row at every start offset mod 8 words, so the 13-word row (the
// served exact layout, 104 B) is seen straddling three lines; 49 and 241
// words are the lpm and pktclass rows.
func TestPrefetchHintsRowLines(t *testing.T) {
	line := func(p uintptr) uintptr { return p / 64 }
	for _, words := range []int{1, 13, 32, 33, 49, 241} {
		a := MustNew(Config{Rows: 9, RowBits: words * 64})
		data := a.PeekWords()
		base := uintptr(unsafe.Pointer(&data[0]))
		end := base + uintptr(len(data))*8
		offsets, straddles := map[uintptr]bool{}, false
		for r := 0; r < a.Rows(); r++ {
			idx := uint32(r)
			row := a.PeekRow(idx)
			first, last := uintptr(unsafe.Pointer(&row[0])), uintptr(unsafe.Pointer(&row[len(row)-1]))
			offsets[first%64/8] = true
			lo, hi, stride := a.hintRange(idx)
			got := map[uintptr]bool{}
			for p := lo; ; p += stride {
				if p >= hi {
					p = hi
				}
				if p < base || p >= end {
					t.Fatalf("%d-word row %d: hint %#x outside the array [%#x, %#x)", words, r, p, base, end)
				}
				got[line(p)] = true
				if p == hi {
					break
				}
			}
			want := map[uintptr]bool{line(first): true, line(last): true}
			if words*8 <= 256 {
				for l := line(first); l <= line(last); l++ {
					want[l] = true
				}
				straddles = straddles || len(want) == 3 && words == 13
			}
			if !maps.Equal(got, want) {
				t.Errorf("%d-word row %d at line offset %d: hinted lines %v, want %v", words, r, first%64, got, want)
			}
			a.Prefetch(idx, unsafe.Pointer(&row[0])) // the stub runs on every range
		}
		if words%2 == 1 && len(offsets) != 8 {
			t.Errorf("%d-word rows start at %d word offsets of a line, want all 8", words, len(offsets))
		}
		if words == 13 && !straddles {
			t.Error("no 13-word row straddles three lines")
		}
	}
}
