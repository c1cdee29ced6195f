package mem

import (
	"testing"
	"testing/quick"
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
