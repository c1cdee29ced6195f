package exp

import (
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/cam"
	"caram/internal/caram"
	"caram/internal/cost"
	"caram/internal/hash"
	"caram/internal/iproute"
	"caram/internal/match"
	"caram/internal/subsystem"
	"caram/internal/workload"
)

// Hardware experiments: the engine itself — banked bandwidth, cell
// activity against low-power CAMs, match-processor count.

// --- Bandwidth (§3.4) ---

func runBandwidth(sc Scale) (string, error) {
	t := &Table{
		Title: "Bandwidth: cycle-level simulation vs B = Nslice/nmem * fclk (DRAM, nmem=6, 200MHz)",
		Header: []string{"Banks", "simulated req/cy", "formula req/cy",
			"simulated Msps", "formula Msps", "error"},
	}
	rng := workload.NewRand(sc.Seed)
	// Figure 8's IP engine, design D (R = 12 index bits), whose bank
	// count the B_CAM note below is about. It is left empty: every
	// search then reads its home row once, which is all the timing
	// model charges for.
	d := iproute.Table2Designs[3]
	for _, banks := range []int{1, 2, 4, 8, 16} {
		sl := caram.MustNew(iproute.SliceConfig(d.Slots(), iproute.NextHopBits, hash.NewMultShift(d.R)))
		keys := make([]bitutil.Ternary, 20000)
		for i := range keys {
			keys[i] = bitutil.Exact(bitutil.FromUint64(uint64(rng.Uint32())))
		}
		e := &subsystem.Engine{Name: "bw", Main: sl, Banks: banks}
		res := e.Simulate(keys, subsystem.TrafficConfig{QueueDepth: 512}, 1)
		formula := cost.CARAMBandwidth(banks, 6, 1) // per cycle
		errPct := 100 * (res.ThroughputPerCy - formula) / formula
		t.AddRow(banks, fmt.Sprintf("%.4f", res.ThroughputPerCy), fmt.Sprintf("%.4f", formula),
			fmt.Sprintf("%.1f", res.ThroughputHz(200e6)/1e6),
			fmt.Sprintf("%.1f", cost.CARAMBandwidth(banks, 6, 200e6)/1e6),
			fmt.Sprintf("%+.1f%%", errPct))
	}
	t.Note("B_CAM = f_CAM = 143 Msps for the Figure 8 TCAM; 8 banks at 200MHz exceed it (266 Msps)")
	return t.Render(), nil
}

// --- Low-power CAM schemes (§5.2) ---

func runLowPower(sc Scale) (string, error) {
	const keyBits = 32
	rng := workload.NewRand(sc.Seed)
	entries := make([]match.Record, 4096)
	for i := range entries {
		entries[i] = match.Record{
			Key:  bitutil.Exact(bitutil.FromUint64(uint64(rng.Uint32()))),
			Data: bitutil.FromUint64(uint64(i)),
		}
	}

	flat := cam.MustNew(cam.Config{Entries: len(entries), KeyBits: keyBits, Kind: cam.Ternary})
	// Real partitioned TCAMs need slack over a perfect split, since the
	// selector does not balance banks exactly; 30% here.
	slack := func(banks int) int { return len(entries) * 13 / (10 * banks) }
	banked4, err := cam.NewBanked(slack(4), keyBits, cam.Ternary, hash.NewBitSelect([]int{30, 31}))
	if err != nil {
		return "", err
	}
	banked8, err := cam.NewBanked(slack(8), keyBits, cam.Ternary, hash.NewBitSelect([]int{29, 30, 31}))
	if err != nil {
		return "", err
	}
	pre, err := cam.NewPrecomputed(keyBits)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if err := flat.Append(e); err != nil {
			return "", err
		}
		if err := banked4.Insert(e, 0); err != nil {
			return "", err
		}
		if err := banked8.Insert(e, 0); err != nil {
			return "", err
		}
		if err := pre.Insert(e); err != nil {
			return "", err
		}
	}

	const searches = 2000
	for i := 0; i < searches; i++ {
		k := entries[rng.Intn(len(entries))].Key
		if !flat.Search(k).Found || !banked4.Search(k).Found ||
			!banked8.Search(k).Found || !pre.Search(k.Value).Found {
			return "", fmt.Errorf("lowpower: schemes disagree")
		}
	}

	t := &Table{
		Title:  "Low-power schemes: storage cells activated per search (4096 entries x 32b)",
		Header: []string{"Scheme", "cells/search", "vs flat TCAM"},
	}
	flatCells := float64(flat.Stats().CellsActivated) / searches
	row := func(name string, cells float64) {
		t.AddRow(name, fmt.Sprintf("%.0f", cells), fmt.Sprintf("%.1f%%", 100*cells/flatCells))
	}
	row("flat TCAM", flatCells)
	row("CoolCAM, 4 banks", float64(banked4.Stats().CellsActivated)/searches)
	row("CoolCAM, 8 banks", float64(banked8.Stats().CellsActivated)/searches)
	row("precomputation CAM (binary)", float64(pre.Stats().CellsActivated)/searches)
	// CA-RAM: one bucket row of, say, 8 keys: 8*keyBits "cells" matched.
	row("CA-RAM (8-key bucket)", 8*keyBits)
	t.Note("paper §5.2: four partitions ideally cut power 75%%; 'In CA-RAM, even better, a memory access is made on a single row'")
	return t.Render(), nil
}

// --- Match-processor count ablation ---

func runMatchP(Scale) (string, error) {
	t := &Table{
		Title:  "Match-processor count P (C=1600, 64-bit keys, S=24 slots): passes vs area",
		Header: []string{"P", "pipelined passes", "relative match area"},
	}
	layout := match.Layout{RowBits: 1600, KeyBits: 64, AuxBits: 0}
	s := layout.Slots()
	for _, p := range []int{1, 4, 8, 16, s} {
		var res match.Result
		row := make([]uint64, bitutil.RowWords(1600))
		match.NewSearcher(layout, p).SearchInto(&res, row, bitutil.Exact(bitutil.Vec128{}))
		// Match-stage logic scales with the processors instantiated;
		// expand/decode/extract are row-wide either way.
		t.AddRow(p, res.Passes, fmt.Sprintf("%.2f", float64(p)/float64(s)))
	}
	t.Note("P = S gives the paper's single-step matching; smaller P trades latency (passes) for area")
	return t.Render(), nil
}
