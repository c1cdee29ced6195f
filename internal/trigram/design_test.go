package trigram

import (
	"math"
	"testing"

	"caram/internal/caram"
)

func TestDesignGeometry(t *testing.T) {
	cases := []struct {
		name           string
		buckets, slots int
		alpha          float64 // paper's alpha at 5,385,231 entries
	}{
		{"A", 4 << 14, 96, 0.86},
		{"B", 5 << 14, 96, 0.68},
		{"C", 1 << 14, 384, 0.86},
		{"D", 1 << 14, 480, 0.68},
	}
	byName := map[string]Design{}
	for _, d := range Table3Designs {
		byName[d.Name] = d
	}
	for _, c := range cases {
		d := byName[c.name]
		if d.Buckets() != c.buckets || d.Slots() != c.slots {
			t.Errorf("%s: geometry %d x %d, want %d x %d",
				c.name, d.Buckets(), d.Slots(), c.buckets, c.slots)
		}
		alpha := float64(PaperEntries) / float64(d.Capacity())
		if math.Abs(alpha-c.alpha) > 0.01 {
			t.Errorf("%s: alpha = %.3f, paper %.2f", c.name, alpha, c.alpha)
		}
	}
	// C = 96 keys x 128 bits = 12,288 bits per slice row (paper §4.2).
	if got := Table3Designs[0].CapacityBits() / float64(4*(1<<14)); got != 12288 {
		t.Errorf("per-row bits = %f, want 12288", got)
	}
}

// scaled shrinks a design by dropping index bits; with the database
// shrunk by the same power of two, alpha — and therefore the binomial
// occupancy statistics — are preserved.
func scaled(d Design, drop int) Design {
	d.R -= drop
	d.Name += "'"
	return d
}

func testDB(t *testing.T, scaleDrop int) []Entry {
	t.Helper()
	n := PaperEntries >> uint(scaleDrop)
	return Generate(GenConfig{Entries: n, Seed: 9, Vocabulary: 20000})
}

// Table 3's shape at 1/64 scale:
//   - design A (alpha=.86): a few % of buckets overflow, well under 1%
//     of records spill, AMAL just above 1
//   - design B (alpha=.68): essentially no overflow
//   - horizontal designs C/D: wider buckets absorb variance, ~0 spill
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-design evaluation in -short mode")
	}
	db := testDB(t, 6)
	results := map[string]*Evaluation{}
	for _, d := range Table3Designs {
		ev, err := Evaluate(db, scaled(d, 6))
		if err != nil {
			t.Fatal(err)
		}
		results[d.Name] = ev
		t.Logf("design %s: alpha=%.2f overflow=%.2f%% spilled=%.3f%% AMAL=%.4f",
			d.Name, ev.LoadFactor, ev.OverflowingPct, ev.SpilledPct, ev.AMAL)
		if ev.Unplaced != 0 {
			t.Errorf("design %s: %d unplaced", d.Name, ev.Unplaced)
		}
	}
	a, b, c, dd := results["A"], results["B"], results["C"], results["D"]
	if math.Abs(a.LoadFactor-0.86) > 0.01 || math.Abs(b.LoadFactor-0.68) > 0.01 {
		t.Errorf("alphas: A=%.3f B=%.3f", a.LoadFactor, b.LoadFactor)
	}
	// Paper design A: 5.99% overflowing, 0.34% spilled, AMAL 1.003.
	if a.OverflowingPct < 2 || a.OverflowingPct > 12 {
		t.Errorf("A overflow = %.2f%%, paper 5.99%%", a.OverflowingPct)
	}
	if a.SpilledPct > 1.0 {
		t.Errorf("A spilled = %.3f%%, paper 0.34%%", a.SpilledPct)
	}
	if a.AMAL < 1 || a.AMAL > 1.02 {
		t.Errorf("A AMAL = %.4f, paper 1.003", a.AMAL)
	}
	// B: nearly nothing overflows (paper 0.02%/0.00%).
	if b.OverflowingPct > 0.5 || b.SpilledPct > 0.05 {
		t.Errorf("B overflow=%.3f%% spilled=%.3f%%", b.OverflowingPct, b.SpilledPct)
	}
	if b.AMAL > 1.001 {
		t.Errorf("B AMAL = %.5f", b.AMAL)
	}
	// Horizontal beats vertical at equal alpha (C vs A, D vs B).
	if c.OverflowingPct >= a.OverflowingPct {
		t.Errorf("C (%.3f%%) should overflow less than A (%.3f%%)", c.OverflowingPct, a.OverflowingPct)
	}
	if dd.SpilledPct > 0.01 {
		t.Errorf("D spilled = %.4f%%, paper 0.00%%", dd.SpilledPct)
	}
}

// Figure 7: design A's occupancy distribution is centered around
// alpha*96 ~ 82 with binomial spread, and the 96-slot bucket size puts
// the vast majority of buckets in the non-overflowing region.
func TestFig7Distribution(t *testing.T) {
	db := testDB(t, 7)
	ev, err := Evaluate(db, scaled(Table3Designs[0], 7))
	if err != nil {
		t.Fatal(err)
	}
	h := ev.OccupancyHistogram()
	if mean := h.Mean(); mean < 78 || mean > 86 {
		t.Errorf("mean occupancy = %.1f, paper: centered ~81-83", mean)
	}
	// Binomial spread: stddev ~ sqrt(mean) ~ 9.
	if sd := h.StdDev(); sd < 5 || sd > 14 {
		t.Errorf("occupancy stddev = %.1f", sd)
	}
	overflowing := float64(h.CountAbove(KeysPerSliceRow)) / float64(h.N())
	if overflowing > 0.12 {
		t.Errorf("%.1f%% of buckets beyond 96 records", 100*overflowing)
	}
}

func TestLookupRoundTrip(t *testing.T) {
	db := Generate(GenConfig{Entries: 20000, Seed: 5, Vocabulary: 8000})
	ev, err := Evaluate(db, Design{Name: "t", R: 8, Slices: 1, Arr: Vertical})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < len(db); i += 97 {
		score, rows, ok := Lookup(ev.Slice, db[i].Text)
		if !ok {
			t.Fatalf("entry %q not found", db[i].Text)
		}
		if score != db[i].Score {
			t.Fatalf("entry %q: score %d, want %d", db[i].Text, score, db[i].Score)
		}
		if rows < 1 {
			t.Fatal("lookup read no rows")
		}
		hits++
	}
	if hits == 0 {
		t.Fatal("no lookups exercised")
	}
	if _, _, ok := Lookup(ev.Slice, "not a trigram!!"); ok {
		t.Error("phantom hit")
	}
	if msg := ev.Slice.Verify(); msg != "" {
		t.Errorf("slice invariant: %s", msg)
	}
}

// Non-power-of-two bucket counts (design B's 5 vertical slices) must
// behave: every entry findable, row count within bounds.
func TestFiveSliceVertical(t *testing.T) {
	db := Generate(GenConfig{Entries: 5000, Seed: 6, Vocabulary: 4000})
	ev, err := Evaluate(db, Design{Name: "b", R: 5, Slices: 5, Arr: Vertical})
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Slice.Config().Rows(); got != 5*32 {
		t.Fatalf("rows = %d, want 160", got)
	}
	for i := 0; i < len(db); i += 53 {
		if _, _, ok := Lookup(ev.Slice, db[i].Text); !ok {
			t.Fatalf("entry %q lost in 5-slice design", db[i].Text)
		}
	}
}

// TestHomeBucketsPinned holds the trigram index generator — the key
// image of Entry.Key, §4.2's 31-bit DJB hash and the slice's reduction
// modulo the row count — to home buckets recorded for fixed keys. The
// design is Table 3's B (five vertical slices) at R = 6: 320 rows, not
// a power of two, so the modulo reduction is exercised. Short, padded,
// 16-byte and over-long (head plus digest) texts all appear. The
// experiment goldens aggregate over whole databases and would not
// notice, say, a 32-bit DJB in place of the 31-bit one. A power-of-two
// row count takes SliceConfig's other form, log2(rows) bits of the
// hash; it must home every key where the pinned generator's output
// reduced modulo the row count does.
func TestHomeBucketsPinned(t *testing.T) {
	d := scaled(Table3Designs[1], 8)
	s := caram.MustNew(SliceConfig(4, d.Buckets()))
	if rows := s.Config().Rows(); rows != 320 {
		t.Fatalf("design %s has %d rows, want 320", d.Name, rows)
	}
	pow := caram.MustNew(SliceConfig(4, 256))
	if cfg := pow.Config(); cfg.IndexBits != 8 || cfg.TotalRows != 0 {
		t.Fatalf("256 rows: IndexBits=%d TotalRows=%d, want the power-of-two form 8/0", cfg.IndexBits, cfg.TotalRows)
	}
	for _, tc := range []struct {
		text string
		home uint32
	}{
		{"the cat sat", 294},
		{"a dog ran far", 122},
		{"of the people", 256},
		{"in the house", 97},
		{"to be or not", 33},
		{"we went home", 232},
		{"it was the best", 28},
		{"she said that", 23},
		{"for the first", 85},
		{"and the rest", 279},
		{"on the other", 197},
		{"at the end of", 231},
		{"one of the most", 192},
		{"as well as the", 162},
		{"there is no way", 135},
		{"i do not know", 145},
		{"bra cho stin", 18},
		{"plou tre vais", 163},
		{"shan kiol dent", 297},
		{"zeam forst lo", 315},
		{"thio wack pung", 57},
		{"ma ne pi", 191},
		{"stro chu gai", 190},
		{"lind mer tousk", 6},
		{"x", 253},
		{"abcdefghijklmnop", 141},
		{"abcdefghijklmnoq", 142},
		{"abcdefghijklmno", 29},
		{"the quick brown fox", 281},
		{"jumps over the lazy dog", 123},
		{"abcdefghijkl-suffix-one", 33},
		{"abcdefghijkl-suffix-two", 239},
	} {
		key := Entry{Text: tc.text}.Key()
		if got := s.Index(key); got != tc.home {
			t.Errorf("home of %q = %d, want %d", tc.text, got, tc.home)
		}
		if got, want := pow.Index(key), s.Config().Index.Index(key)%256; got != want {
			t.Errorf("power-of-two home of %q = %d, the pinned generator's %d", tc.text, got, want)
		}
	}
}
