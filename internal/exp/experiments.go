package exp

import (
	"fmt"
	"strings"
	"sync"

	"caram/internal/cost"
	"caram/internal/iproute"
	"caram/internal/match"
	"caram/internal/trigram"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	Name string
	Desc string
	Run  func(Scale) (string, error)
}

// Experiments lists every experiment: the paper's evaluation in paper
// order, then the ablations and extensions. caram-bench -list and RunAll
// follow this order.
var Experiments = []Experiment{
	{"table1", "match-processor synthesis (cells/area/delay per stage)", runTable1},
	{"fig6a", "cell size comparison: TCAMs vs ternary DRAM CA-RAM", runFig6a},
	{"fig6b", "power comparison: TCAMs vs ternary DRAM CA-RAM", runFig6b},
	{"table2", "IP-lookup CA-RAM designs (alpha, overflow, AMAL)", runTable2},
	{"table3", "trigram-lookup CA-RAM designs (alpha, overflow, AMAL)", runTable3},
	{"fig7", "bucket-occupancy distribution, trigram design A", runFig7},
	{"fig8", "application-level area/power: TCAM/CAM vs CA-RAM", runFig8},
	{"bandwidth", "cycle-level banked bandwidth vs the B=Nslice/nmem*fclk formula", runBandwidth},
	{"overflow", "§4.3 ablation: parallel overflow area drives AMAL to 1", runOverflow},
	{"hashes", "ablation: index-generator choice on both workloads", runHashAblation},
	{"software", "software baselines: memory accesses per lookup vs CA-RAM", runSoftware},
	{"pktclass", "packet classification: ACL on TCAM vs CA-RAM + overflow engine", runPktClass},
	{"svm", "§2.1 trade-off: S vs M at fixed capacity (trigram workload)", runSvsM},
	{"probelimit", "probe-limit sensitivity: bounded probing vs unplaced records", runProbeLimit},
	{"partition", "§4.2 completed: the full Sphinx-like DB partitioned by length over engines", runPartition},
	{"amaltrace", "validation: analytic AMAL vs trace-driven LPM lookups", runAMALTrace},
	{"updates", "BGP churn: per-update cost, CA-RAM row writes vs TCAM entry moves", runUpdates},
	{"energy", "measured workload energy via the §3.4 model, CA-RAM vs TCAM", runEnergy},
	{"zane", "§4.1 claim check: greedy hash-bit selection vs the fixed last-R-bits choice", runZane},
	{"ipv6", "§4.1 projection: IPv6 quadruples the table; CA-RAM vs TCAM capacity", runIPv6},
	{"lowpower", "§5.2: per-search cell activity — flat TCAM vs CoolCAM banks vs CA-RAM", runLowPower},
	{"matchp", "ablation: match-processor count P vs pipelined passes and area", runMatchP},
}

// List renders the registry as caram-bench -list prints it: one line
// per experiment, name then description.
func List() string {
	var b strings.Builder
	for _, e := range Experiments {
		fmt.Fprintf(&b, "%-10s %s\n", e.Name, e.Desc)
	}
	return b.String()
}

// Run executes one experiment by name.
func Run(name string, sc Scale) (string, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return e.Run(sc)
		}
	}
	return "", fmt.Errorf("exp: unknown experiment %q", name)
}

// RunAll executes every experiment, concatenating output.
func RunAll(sc Scale) (string, error) {
	var b strings.Builder
	for _, e := range Experiments {
		out, err := e.Run(sc)
		if err != nil {
			return b.String(), fmt.Errorf("%s: %w", e.Name, err)
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// --- Table 1 ---

func runTable1(Scale) (string, error) {
	s := match.Synthesize(1600, 8)
	t := &Table{
		Title:  "Table 1: match processor synthesis (C=1600, 0.16um)",
		Header: []string{"Step", "# cells", "Area um^2", "Delay ns", "hidden"},
	}
	for _, st := range s.Stages {
		hidden := ""
		if st.Hidden {
			hidden = "yes (overlapped with memory access)"
		}
		t.AddRow(st.Name, st.Cells, fmt.Sprintf("%.0f", st.AreaUm2), f2(st.DelayNs), hidden)
	}
	t.AddRow("Total", s.TotalCells(), fmt.Sprintf("%.0f", s.TotalAreaUm2()), f2(s.CriticalPathNs()), "")
	t.Note("paper totals: 15,992 cells, 100,564 um^2, 4.85 ns — reproduced exactly (calibration point)")
	t.Note("fits a single cycle at %v MHz: %v (paper: 'over 200MHz')", 200, s.FitsCycleMHz(200))
	t.Note("worst-case dynamic power at 6ns clock, 0.5 activity, 1.8V: %.1f mW (paper: 60.8 mW)",
		s.DynamicPowerMW(1e3/6, 0.5, 1.8))
	return t.Render(), nil
}

// --- Figure 6 ---

func runFig6a(Scale) (string, error) {
	comp := cost.Fig6Comparison(cost.Default, cost.DefaultFig6)
	t := &Table{
		Title:  "Figure 6(a): cell size of different schemes (130nm)",
		Header: []string{"Scheme", "cell um^2", "relative to CA-RAM"},
	}
	for _, c := range comp {
		t.AddRow(c.Name, f3(c.CellUm2), fmt.Sprintf("%.1fx", c.RelativeArea))
	}
	t.Note("paper: 16T SRAM TCAM over 12x, 6T dynamic TCAM 4.8x larger than ternary DRAM CA-RAM")
	return t.Render(), nil
}

func runFig6b(Scale) (string, error) {
	comp := cost.Fig6Comparison(cost.Default, cost.DefaultFig6)
	t := &Table{
		Title:  "Figure 6(b): power of different schemes (1Mi cells, 143MHz search rate)",
		Header: []string{"Scheme", "power (rel units)", "relative to CA-RAM"},
	}
	for _, c := range comp {
		t.AddRow(c.Name, fmt.Sprintf("%.3g", c.Power), fmt.Sprintf("%.1fx", c.RelativePower))
	}
	t.Note("paper: over 26x more power-efficient than 16T TCAM, over 7x than 6T TCAM")
	return t.Render(), nil
}

// --- Table 2 ---

// paperTable2 carries the published values for side-by-side reporting.
var paperTable2 = map[string][5]float64{ // alpha, ovf%, spill%, AMALu, AMALs
	"A": {0.47, 12.21, 15.82, 1.476, 1.425},
	"B": {0.40, 5.42, 5.50, 1.147, 1.125},
	"C": {0.36, 2.64, 1.35, 1.093, 1.082},
	"D": {0.36, 6.67, 8.03, 1.159, 1.126},
	"E": {0.24, 1.03, 0.72, 1.072, 1.068},
	"F": {0.36, 15.56, 29.63, 1.990, 1.875},
}

func scaledIPDesign(d iproute.Design, drop int) iproute.Design {
	d.R -= drop
	return d
}

func runTable2(sc Scale) (string, error) {
	table := iproute.Generate(iproute.GenConfig{Prefixes: sc.IPPrefixes(), Seed: sc.Seed})
	t := &Table{
		Title: "Table 2: CA-RAM designs for IP address lookup",
		Header: []string{"Design", "R", "C", "Slices", "Arrangement",
			"alpha", "Ovf bkts", "Spilled", "AMALu", "AMALs",
			"paper u", "paper s"},
	}
	var dupPct float64
	var paper strings.Builder
	for _, d := range iproute.Table2Designs {
		ev, err := iproute.Evaluate(table, scaledIPDesign(d, sc.IPDrop), sc.Seed)
		if err != nil {
			return "", err
		}
		dupPct = ev.DupPct
		p := paperTable2[d.Name]
		paper.WriteString(paperPlacement(d.Name, p[0], p[1], p[2]))
		t.AddRow(d.Name, d.R-sc.IPDrop, fmt.Sprintf("%dx64", d.KeysPerRow), d.Slices, d.Arr.String(),
			f2(ev.LoadFactor), pct(ev.OverflowingPct), pct(ev.SpilledPct),
			f3(ev.AMALu), f3(ev.AMALs), f3(p[3]), f3(p[4]))
	}
	t.Note("%s; %d prefixes (paper: 186,760)", sc.Label(), len(table))
	t.Note("don't-care duplication: %.2f%% (paper: 6.4%%)", dupPct)
	t.Note("paper alpha/overflow/spill:%s", paper.String())
	return t.Render(), nil
}

// paperPlacement renders one design's published alpha/overflow/spill
// triple for a table note, as " A .47/12.21/15.82".
func paperPlacement(name string, alpha, ovf, spill float64) string {
	return fmt.Sprintf(" %s %s/%.2f/%.2f", name, strings.TrimPrefix(f2(alpha), "0"), ovf, spill)
}

// --- Table 3 ---

var paperTable3 = map[string][4]float64{ // alpha, ovf%, spill%, AMAL
	"A": {0.86, 5.99, 0.34, 1.003},
	"B": {0.68, 0.02, 0.00, 1.000},
	"C": {0.86, 0.15, 0.00, 1.000},
	"D": {0.68, 0.00, 0.00, 1.000},
}

func scaledTriDesign(d trigram.Design, drop int) trigram.Design {
	d.R -= drop
	return d
}

// trigramDBCache memoizes the synthetic database per (drop, seed):
// several experiments share it, and the full-scale 5.4M-entry corpus
// takes a minute to synthesize.
var trigramDBCache struct {
	sync.Mutex
	drop int
	seed int64
	db   []trigram.Entry
}

func trigramDB(sc Scale) []trigram.Entry {
	c := &trigramDBCache
	c.Lock()
	defer c.Unlock()
	if c.db == nil || c.drop != sc.TrigramDrop || c.seed != sc.Seed {
		n := trigram.PaperEntries >> uint(sc.TrigramDrop)
		c.db = trigram.Generate(trigram.GenConfig{Entries: n, Seed: sc.Seed})
		c.drop, c.seed = sc.TrigramDrop, sc.Seed
	}
	return c.db
}

func runTable3(sc Scale) (string, error) {
	db := trigramDB(sc)
	t := &Table{
		Title: "Table 3: CA-RAM designs for trigram lookup",
		Header: []string{"Design", "R", "C", "Slices", "Arrangement",
			"alpha", "Ovf bkts", "Spilled", "AMAL", "paper AMAL"},
	}
	var paper strings.Builder
	for _, d := range trigram.Table3Designs {
		ev, err := trigram.Evaluate(db, scaledTriDesign(d, sc.TrigramDrop))
		if err != nil {
			return "", err
		}
		p := paperTable3[d.Name]
		paper.WriteString(paperPlacement(d.Name, p[0], p[1], p[2]))
		t.AddRow(d.Name, d.R-sc.TrigramDrop, "128x96", d.Slices, d.Arr.String(),
			f2(ev.LoadFactor), pct(ev.OverflowingPct), pct(ev.SpilledPct),
			f3(ev.AMAL), f3(p[3]))
	}
	t.Note("%s; %d entries (paper: 5,385,231)", sc.Label(), len(db))
	t.Note("paper alpha/overflow/spill:%s", paper.String())
	return t.Render(), nil
}

// --- Figure 7 ---

func runFig7(sc Scale) (string, error) {
	db := trigramDB(sc)
	ev, err := trigram.Evaluate(db, scaledTriDesign(trigram.Table3Designs[0], sc.TrigramDrop))
	if err != nil {
		return "", err
	}
	h := ev.OccupancyHistogram()
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure 7: records-per-bucket distribution, trigram design A ==\n")
	b.WriteString(h.Render(h.Min(), 2, 50))
	fmt.Fprintf(&b, "mean %.1f, stddev %.1f (paper: centered around 81)\n", h.Mean(), h.StdDev())
	over := float64(h.CountAbove(trigram.KeysPerSliceRow)) / float64(h.N())
	fmt.Fprintf(&b, "buckets beyond the 96-record bucket size: %.2f%% (paper: %.2f%% overflowing)\n",
		100*over, paperTable3[trigram.Table3Designs[0].Name][1])
	return b.String(), nil
}

// --- Figure 8 ---

func runFig8(sc Scale) (string, error) {
	// The Figure 8 comparison is analytical at the paper's full-scale
	// parameters; the measured load factor and duplication come from
	// the scaled runs above and match the paper's by construction.
	ipDesign := iproute.Table2Designs[3] // design D
	triDesign := trigram.Table3Designs[0]

	storedPrefixes := 198795.0 // 186,760 + 6.44% duplicates
	ip := cost.Fig8(cost.Default, cost.Fig8Params{
		App:            "IP lookup (TCAM vs CA-RAM design D, 8 banks @200MHz)",
		BaselineKind:   cost.TCAM6T,
		BaselineCells:  storedPrefixes * 32,
		BaselineRateHz: 143e6,
		CapacityBits:   ipDesign.CapacityBits(),
		LoadFactor:     float64(iproute.PaperTableSize) / float64(ipDesign.Capacity()),
		BucketBits:     float64(ipDesign.Slots()) * 64,
		Slots:          float64(ipDesign.Slots()),
		CARAMRateHz:    143e6,
		ComparePower:   true,
	})
	tri := cost.Fig8(cost.Default, cost.Fig8Params{
		App:           "trigram lookup (CAM vs CA-RAM design A)",
		BaselineKind:  cost.CAMStacked,
		BaselineCells: float64(trigram.PaperEntries) * 128,
		CapacityBits:  triDesign.CapacityBits(),
		LoadFactor:    float64(trigram.PaperEntries) / float64(triDesign.Capacity()),
	})

	t := &Table{
		Title: "Figure 8: area and power, baseline vs CA-RAM (relative)",
		Header: []string{"Application", "Baseline", "base area mm^2", "CA-RAM area mm^2",
			"area saving", "power saving"},
	}
	t.AddRow(ip.App, ip.Baseline, f2(ip.BaselineAreaMM2), f2(ip.CARAMAreaMM2),
		pct(ip.AreaSavingPct), pct(ip.PowerSavingPct))
	t.AddRow(tri.App, tri.Baseline, f2(tri.BaselineAreaMM2), f2(tri.CARAMAreaMM2),
		fmt.Sprintf("%.1fx smaller", 1/tri.AreaRatio), "(not compared)")
	t.Note("paper: IP lookup 45%% area reduction, 70%% power saving; trigram 5.9x area reduction")
	t.Note("power for the 1992 stacked-capacitor CAM is not compared, following the paper")
	return t.Render(), nil
}
