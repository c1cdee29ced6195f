package cost

import (
	"math"
	"testing"
)

func TestCellAreas(t *testing.T) {
	// Published 130 nm values the model must carry verbatim.
	cases := map[CellKind]float64{
		TCAM16T: 9.00,
		TCAM8T:  4.79,
		TCAM6T:  3.59,
		EDRAM:   0.35,
	}
	for k, want := range cases {
		if got := CellAreaUm2(k); got != want {
			t.Errorf("%s area = %f, want %f", k, got, want)
		}
	}
	if CellAreaUm2(CellKind(99)) != 0 {
		t.Error("unknown kind should be 0")
	}
	for _, k := range []CellKind{TCAM16T, TCAM8T, TCAM6T, CAMStacked, EDRAM, SRAM6T} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestCARAMCell(t *testing.T) {
	tern := CARAMCellUm2(EDRAM, true)
	if math.Abs(tern-2*0.35*MatchOverhead) > 1e-12 {
		t.Errorf("ternary cell = %f", tern)
	}
	bin := CARAMCellUm2(EDRAM, false)
	if bin >= tern {
		t.Error("binary cell should be half the ternary cell")
	}
}

// Figure 6(a): the paper reports CA-RAM over 12x smaller than 16T
// TCAM and 4.8x smaller than 6T TCAM.
func TestFig6aCellRatios(t *testing.T) {
	comp := Fig6Comparison(Default, DefaultFig6)
	rel := map[string]float64{}
	for _, c := range comp {
		rel[c.Name] = c.RelativeArea
	}
	if r := rel["16T SRAM TCAM"]; r < 12.0 || r > 12.1 {
		t.Errorf("16T relative area = %f, paper: >12x", r)
	}
	if r := rel["6T dynamic TCAM"]; r < 4.7 || r > 4.9 {
		t.Errorf("6T relative area = %f, paper: 4.8x", r)
	}
	if rel["CA-RAM (DRAM, ternary)"] != 1 {
		t.Error("CA-RAM not normalized to 1")
	}
	// Ordering: 16T > 8T > 6T > CA-RAM.
	if !(rel["16T SRAM TCAM"] > rel["8T dynamic TCAM"] &&
		rel["8T dynamic TCAM"] > rel["6T dynamic TCAM"] &&
		rel["6T dynamic TCAM"] > 1) {
		t.Errorf("area ordering violated: %+v", rel)
	}
}

// Figure 6(b): over 26x more power-efficient than 16T TCAM, over 7x
// than 6T TCAM.
func TestFig6bPowerRatios(t *testing.T) {
	comp := Fig6Comparison(Default, DefaultFig6)
	rel := map[string]float64{}
	for _, c := range comp {
		rel[c.Name] = c.RelativePower
	}
	if r := rel["16T SRAM TCAM"]; r < 24 || r > 29 {
		t.Errorf("16T relative power = %f, paper: >26x", r)
	}
	if r := rel["6T dynamic TCAM"]; r < 6.5 || r > 8.5 {
		t.Errorf("6T relative power = %f, paper: >7x", r)
	}
	if !(rel["16T SRAM TCAM"] > rel["8T dynamic TCAM"] &&
		rel["8T dynamic TCAM"] > rel["6T dynamic TCAM"] &&
		rel["6T dynamic TCAM"] > 1) {
		t.Errorf("power ordering violated: %+v", rel)
	}
}

// Figure 8, IP application with the paper's parameters: design D
// (R=12, C=64x64, 2 horizontal slices, alpha=0.36) in 8 vertical banks
// at 200 MHz vs a 143 MHz 6T TCAM holding 198,795 prefixes. Expected:
// ~45% area reduction, ~70% power saving.
func TestFig8IPPaperPoint(t *testing.T) {
	c := Fig8(Default, Fig8Params{
		App:            "IP lookup",
		BaselineKind:   TCAM6T,
		BaselineCells:  198795 * 32, // prefixes (incl. duplicates) x 32 symbols
		BaselineRateHz: 143e6,
		CapacityBits:   2 * 4096 * 4096, // 2 slices x 2^12 rows x 4096 bits
		LoadFactor:     0.36,
		BucketBits:     8192, // both horizontal slices fetched per search
		Slots:          128,
		CARAMRateHz:    143e6, // iso-throughput with the TCAM
		ComparePower:   true,
	})
	if c.AreaSavingPct < 40 || c.AreaSavingPct > 50 {
		t.Errorf("IP area saving = %.1f%%, paper: 45%%", c.AreaSavingPct)
	}
	if c.PowerSavingPct < 65 || c.PowerSavingPct > 75 {
		t.Errorf("IP power saving = %.1f%%, paper: 70%%", c.PowerSavingPct)
	}
	if !c.PowerCompared || c.Baseline != "TCAM" {
		t.Errorf("comparison = %+v", c)
	}
}

// Figure 8, trigram application: design A (4 vertical slices,
// alpha=0.86) vs a stacked-capacitor binary CAM holding all entries.
// Expected: ~5.9x area reduction; power not compared (the paper
// declines because the 1992 CAM lacks power-reduction techniques).
func TestFig8TrigramPaperPoint(t *testing.T) {
	c := Fig8(Default, Fig8Params{
		App:           "trigram lookup",
		BaselineKind:  CAMStacked,
		BaselineCells: 5385231 * 128, // entries x 128-bit keys
		CapacityBits:  4 * 16384 * 12288,
		LoadFactor:    0.86,
	})
	ratio := 1 / c.AreaRatio
	if ratio < 5.4 || ratio > 6.4 {
		t.Errorf("trigram area advantage = %.2fx, paper: 5.9x", ratio)
	}
	if c.PowerCompared {
		t.Error("trigram power must not be compared")
	}
	if c.Baseline != "CAM" {
		t.Errorf("baseline = %s", c.Baseline)
	}
}

func TestBandwidthFormulas(t *testing.T) {
	// B = Nslice/nmem * fclk: 8 slices, DRAM nmem=6, 200 MHz.
	b := CARAMBandwidth(8, 6, 200e6)
	if math.Abs(b-8.0/6.0*200e6) > 1 {
		t.Errorf("CA-RAM bandwidth = %f", b)
	}
	if CARAMBandwidth(1, 0, 200e6) != 0 {
		t.Error("nmem=0 should yield 0")
	}
	// The Figure 8 design point: 8 banks of DRAM CA-RAM at 200 MHz must
	// meet or beat the 143 MHz TCAM's bandwidth, one search per clock.
	if CARAMBandwidth(8, 6, 200e6) < 143e6 {
		t.Error("design D in 8 banks fails to match TCAM bandwidth")
	}
}

func TestPowerModelMonotonic(t *testing.T) {
	m := Default
	// More cells, more CAM power.
	if m.CAMSearchPower(TCAM6T, 2e6, 1e8) <= m.CAMSearchPower(TCAM6T, 1e6, 1e8) {
		t.Error("CAM power not monotonic in cells")
	}
	// Wider buckets, more CA-RAM power.
	if m.CARAMSearchPower(8192, 128, 1e6, 1e8) <= m.CARAMSearchPower(4096, 64, 1e6, 1e8) {
		t.Error("CA-RAM power not monotonic in bucket width")
	}
	// Zero search rate leaves only background power.
	bg := m.CARAMSearchPower(4096, 64, 1e6, 0)
	if bg != 1e6*m.BackgroundBit {
		t.Errorf("background power = %f", bg)
	}
}
