package caram

// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks of the core structures. The per-experiment benches
// report the experiment's headline quantities via b.ReportMetric so
// `go test -bench .` regenerates the numbers EXPERIMENTS.md records;
// cmd/caram-bench prints the full tables.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/cam"
	"caram/internal/caram"
	"caram/internal/cost"
	"caram/internal/hash"
	"caram/internal/iproute"
	"caram/internal/match"
	"caram/internal/mem"
	"caram/internal/metrics"
	"caram/internal/pktclass"
	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/swsearch"
	"caram/internal/trace"
	"caram/internal/trigram"
	"caram/internal/workload"
)

// Lazily-built shared datasets (1/16-scale IP table, 1/64-scale
// trigram DB — every load factor matches the paper's).
var (
	ipOnce  sync.Once
	ipTable []iproute.Prefix

	triOnce sync.Once
	triDB   []trigram.Entry
)

func benchIPTable() []iproute.Prefix {
	ipOnce.Do(func() {
		ipTable = iproute.Generate(iproute.GenConfig{Prefixes: iproute.PaperTableSize / 16, Seed: 1})
	})
	return ipTable
}

func benchTriDB() []trigram.Entry {
	triOnce.Do(func() {
		triDB = trigram.Generate(trigram.GenConfig{Entries: trigram.PaperEntries / 64, Seed: 1})
	})
	return triDB
}

// --- Table 1 ---

// BenchmarkTable1MatchProcessor exercises a full 1600-bit-row match
// (expand, match vector, priority encode, extract) and reports the
// synthesis model's critical path.
func BenchmarkTable1MatchProcessor(b *testing.B) {
	layout := match.Layout{RowBits: 1600, KeyBits: 64, DataBits: 0, AuxBits: 0}
	sr := match.NewSearcher(layout, 0)
	var res match.Result
	row := make([]uint64, bitutil.RowWords(1600))
	for i := 0; i < layout.Slots(); i++ {
		rec := match.Record{Key: bitutil.Exact(bitutil.FromUint64(uint64(i * 977)))}
		if err := layout.WriteSlot(row, i, rec); err != nil {
			b.Fatal(err)
		}
	}
	key := bitutil.Exact(bitutil.FromUint64(uint64(12 * 977)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sr.SearchInto(&res, row, key); !res.Matched() {
			b.Fatal("match lost")
		}
	}
	s := match.Synthesize(1600, 8)
	b.ReportMetric(s.CriticalPathNs(), "model-delay-ns")
	b.ReportMetric(float64(s.TotalCells()), "model-cells")
}

// --- Figure 6 ---

// BenchmarkFig6Cell reports the cell-size ratios of Figure 6(a).
func BenchmarkFig6Cell(b *testing.B) {
	var comp []cost.SchemeComparison
	for i := 0; i < b.N; i++ {
		comp = cost.Fig6Comparison(cost.Default, cost.DefaultFig6)
	}
	for _, c := range comp {
		if c.Name == "16T SRAM TCAM" {
			b.ReportMetric(c.RelativeArea, "16T-area-x")
			b.ReportMetric(c.RelativePower, "16T-power-x")
		}
		if c.Name == "6T dynamic TCAM" {
			b.ReportMetric(c.RelativeArea, "6T-area-x")
			b.ReportMetric(c.RelativePower, "6T-power-x")
		}
	}
}

// --- Table 2 ---

// BenchmarkTable2IPLookup builds each Table 2 design and measures LPM
// lookup throughput, reporting the analytic AMALu.
func BenchmarkTable2IPLookup(b *testing.B) {
	table := benchIPTable()
	for _, d := range iproute.Table2Designs {
		d := d
		d.R -= 4 // keep the paper's alpha at 1/16 scale
		b.Run("design"+d.Name, func(b *testing.B) {
			ev, err := iproute.Evaluate(table, d, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := workload.NewRand(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := table[rng.Intn(len(table))]
				if _, _, ok := iproute.LPMLookup(ev.Slice, p.Addr); !ok {
					b.Fatal("stored prefix unroutable")
				}
			}
			b.ReportMetric(ev.AMALu, "AMALu")
			b.ReportMetric(ev.AMALs, "AMALs")
			b.ReportMetric(ev.SpilledPct, "spilled-%")
		})
	}
}

// --- Table 3 / Figure 7 ---

// BenchmarkTable3Trigram builds each Table 3 design and measures
// exact-match lookup throughput, reporting the analytic AMAL.
func BenchmarkTable3Trigram(b *testing.B) {
	db := benchTriDB()
	for _, d := range trigram.Table3Designs {
		d := d
		d.R -= 6
		b.Run("design"+d.Name, func(b *testing.B) {
			ev, err := trigram.Evaluate(db, d)
			if err != nil {
				b.Fatal(err)
			}
			rng := workload.NewRand(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := db[rng.Intn(len(db))]
				if _, _, ok := trigram.Lookup(ev.Slice, e.Text); !ok {
					b.Fatal("stored trigram lost")
				}
			}
			b.ReportMetric(ev.AMAL, "AMAL")
			b.ReportMetric(ev.OverflowingPct, "overflowing-%")
		})
	}
}

// BenchmarkFig7Occupancy reports design A's occupancy distribution.
func BenchmarkFig7Occupancy(b *testing.B) {
	db := benchTriDB()
	d := trigram.Table3Designs[0]
	d.R -= 6
	ev, err := trigram.Evaluate(db, d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var mean, sd float64
	for i := 0; i < b.N; i++ {
		h := ev.OccupancyHistogram()
		mean, sd = h.Mean(), h.StdDev()
	}
	b.ReportMetric(mean, "mean-occupancy")
	b.ReportMetric(sd, "stddev")
}

// --- Figure 8 ---

// BenchmarkFig8AreaPower reports the application-level comparisons.
func BenchmarkFig8AreaPower(b *testing.B) {
	d := iproute.Table2Designs[3]
	t := trigram.Table3Designs[0]
	var ip, tri cost.AppComparison
	for i := 0; i < b.N; i++ {
		ip = cost.Fig8(cost.Default, cost.Fig8Params{
			App: "ip", BaselineKind: cost.TCAM6T, BaselineCells: 198795 * 32,
			BaselineRateHz: 143e6, CapacityBits: d.CapacityBits(),
			LoadFactor: float64(iproute.PaperTableSize) / float64(d.Capacity()),
			BucketBits: float64(d.Slots()) * 64, Slots: float64(d.Slots()),
			CARAMRateHz: 143e6, ComparePower: true,
		})
		tri = cost.Fig8(cost.Default, cost.Fig8Params{
			App: "trigram", BaselineKind: cost.CAMStacked,
			BaselineCells: float64(trigram.PaperEntries) * 128,
			CapacityBits:  t.CapacityBits(),
			LoadFactor:    float64(trigram.PaperEntries) / float64(t.Capacity()),
		})
	}
	b.ReportMetric(ip.AreaSavingPct, "ip-area-saving-%")
	b.ReportMetric(ip.PowerSavingPct, "ip-power-saving-%")
	b.ReportMetric(1/tri.AreaRatio, "trigram-area-x")
}

// --- §3.4 bandwidth ---

// BenchmarkSubsystemBandwidth simulates banked engines and reports
// requests per cycle against the analytical formula.
func BenchmarkSubsystemBandwidth(b *testing.B) {
	for _, banks := range []int{1, 8} {
		banks := banks
		b.Run(map[int]string{1: "1bank", 8: "8banks"}[banks], func(b *testing.B) {
			sl := caram.MustNew(caram.Config{
				IndexBits: 12, RowBits: 8*(1+32+16) + 8, KeyBits: 32, DataBits: 16,
				Tech: mem.DRAM, Index: hash.NewMultShift(12),
			})
			rng := workload.NewRand(4)
			keys := make([]bitutil.Ternary, 4096)
			for i := range keys {
				keys[i] = bitutil.Exact(bitutil.FromUint64(uint64(rng.Uint32())))
			}
			e := &subsystem.Engine{Name: "bw", Main: sl, Banks: banks}
			var res subsystem.SimResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = e.Simulate(keys, subsystem.TrafficConfig{QueueDepth: 256}, 1)
			}
			b.ReportMetric(res.ThroughputPerCy, "req-per-cycle")
			b.ReportMetric(cost.CARAMBandwidth(banks, 6, 1), "formula-req-per-cycle")
		})
	}
}

// --- Microbenchmarks of the core structures ---

func benchSlice(b *testing.B, tech mem.Technology) *caram.Slice {
	b.Helper()
	sl := caram.MustNew(caram.Config{
		IndexBits: 12, RowBits: 16*(1+32+16) + 8, KeyBits: 32, DataBits: 16,
		Tech: tech, Index: hash.NewMultShift(12),
	})
	for i := 0; i < 32768; i++ {
		if err := sl.Insert(match.Record{
			Key:  bitutil.Exact(bitutil.FromUint64(uint64(i))),
			Data: bitutil.FromUint64(uint64(i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return sl
}

// BenchmarkSliceLookup measures simulator lookup speed (host-side).
func BenchmarkSliceLookup(b *testing.B) {
	sl := benchSlice(b, mem.SRAM)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sl.Lookup(bitutil.Exact(bitutil.FromUint64(uint64(i % 32768)))).Found {
			b.Fatal("lost record")
		}
	}
}

// BenchmarkSliceInsert measures placement speed.
func BenchmarkSliceInsert(b *testing.B) {
	sl := caram.MustNew(caram.Config{
		IndexBits: 16, RowBits: 16*(1+32+16) + 8, KeyBits: 32, DataBits: 16,
		Index: hash.NewMultShift(16), AllowDuplicates: true,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i != 0 && i%(sl.Config().Capacity()/2) == 0 {
			sl.Clear()
		}
		if err := sl.Insert(match.Record{Key: bitutil.Exact(bitutil.FromUint64(uint64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCAMSearch measures the TCAM baseline's full-device search.
func BenchmarkCAMSearch(b *testing.B) {
	d := cam.MustNew(cam.Config{Entries: 4096, KeyBits: 32, Kind: cam.Ternary})
	for i := 0; i < 4096; i++ {
		if err := d.Append(match.Record{Key: bitutil.Exact(bitutil.FromUint64(uint64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.Search(bitutil.Exact(bitutil.FromUint64(uint64(i % 4096)))).Found {
			b.Fatal("lost entry")
		}
	}
}

// BenchmarkTrieLookup measures the software LPM baseline.
func BenchmarkTrieLookup(b *testing.B) {
	table := benchIPTable()
	tr := swsearch.NewTrie(32)
	for _, p := range table {
		tr.Insert(uint64(p.Addr), p.Len, uint64(p.NextHop))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(uint64(table[i%len(table)].Addr))
	}
}

// BenchmarkDJBHash measures the trigram index generator.
func BenchmarkDJBHash(b *testing.B) {
	key := []byte("plend fack vu")
	b.SetBytes(int64(len(key)))
	for i := 0; i < b.N; i++ {
		hash.DJBBytes(key)
	}
}

// BenchmarkPacketClassification measures CA-RAM-engine classification
// throughput on a synthetic ACL, reporting overflow pressure.
func BenchmarkPacketClassification(b *testing.B) {
	rules := pktclass.GenerateRules(pktclass.GenRulesConfig{Rules: 2000, Seed: 1})
	c, err := pktclass.NewCARAMClassifier(rules, pktclass.CARAMConfig{IndexBits: 9, Slots: 64})
	if err != nil {
		b.Fatal(err)
	}
	trace := pktclass.GenerateTrace(rules, 8192, 0.25, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(trace[i%len(trace)])
	}
	main, ovfl := c.Entries()
	b.ReportMetric(float64(ovfl)/float64(main+ovfl)*100, "overflow-%")
}

// BenchmarkServerParallelSearch measures protocol-level search
// throughput when every client targets its own engine — the traffic
// pattern the per-engine locking model exists for. The per-engine case
// runs on the server's real path (subsystem.Concurrent); the
// global-mutex case reproduces the old design by funnelling the same
// requests through one lock. On a multi-core host the per-engine case
// scales with cores; "goroutines" forces contention even at
// GOMAXPROCS=1 so the two cases stay comparable on throttled CI. The
// analytic bandwidth model (§3.4: B scales with the number of
// independent slices) is reported alongside the measured numbers.
func BenchmarkServerParallelSearch(b *testing.B) {
	const (
		nEngines = 8
		nKeys    = 4096
	)
	mk := func(b *testing.B) *server.Server {
		sub := subsystem.New(0)
		for e := 0; e < nEngines; e++ {
			sl := caram.MustNew(caram.Config{
				IndexBits: 10, RowBits: 8*(1+64+32) + 8, KeyBits: 64, DataBits: 32,
				Index: hash.NewMultShift(10),
			})
			for k := 0; k < nKeys; k++ {
				if err := sl.Insert(match.Record{
					Key:  bitutil.Exact(bitutil.FromUint64(uint64(k))),
					Data: bitutil.FromUint64(uint64(k)),
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := sub.AddEngine(&subsystem.Engine{Name: fmt.Sprintf("e%d", e), Main: sl}); err != nil {
				b.Fatal(err)
			}
		}
		return server.New(sub)
	}
	run := func(b *testing.B, exec func(string) string) {
		b.SetParallelism(nEngines) // nEngines goroutines per GOMAXPROCS
		var ctr int64
		b.RunParallel(func(pb *testing.PB) {
			eng := "e" + strconv.FormatInt(atomic.AddInt64(&ctr, 1)%nEngines, 10)
			i := 0
			for pb.Next() {
				line := "SEARCH " + eng + " " + strconv.FormatUint(uint64(i%nKeys), 16)
				if resp := exec(line); !strings.HasPrefix(resp, "HIT") {
					b.Fatal(resp)
				}
				i++
			}
		})
		b.ReportMetric(cost.CARAMBandwidth(nEngines, 1, 1), "model-req-per-cycle")
	}
	b.Run("per-engine-locks", func(b *testing.B) {
		s := mk(b)
		run(b, s.Exec)
	})
	b.Run("global-mutex-baseline", func(b *testing.B) {
		s := mk(b)
		var mu sync.Mutex
		run(b, func(line string) string {
			mu.Lock()
			defer mu.Unlock()
			return s.Exec(line)
		})
	})
}

// BenchmarkServerSearchInstrumented prices the observability layer: the
// identical single-goroutine SEARCH workload through a server with
// metrics (the default — every op pays two atomic adds plus a histogram
// bucket add and a clock read) and one built with
// server.WithoutMetrics() (the bare pre-metrics path). The delta
// between the two sub-benchmarks is the per-op instrumentation
// overhead; CHANGES.md records the measured numbers.
func BenchmarkServerSearchInstrumented(b *testing.B) {
	const nKeys = 4096
	mk := func(b *testing.B, opts ...server.Option) *server.Server {
		sub := subsystem.New(0)
		sl := caram.MustNew(caram.Config{
			IndexBits: 10, RowBits: 8*(1+64+32) + 8, KeyBits: 64, DataBits: 32,
			Index: hash.NewMultShift(10),
		})
		for k := 0; k < nKeys; k++ {
			if err := sl.Insert(match.Record{
				Key:  bitutil.Exact(bitutil.FromUint64(uint64(k))),
				Data: bitutil.FromUint64(uint64(k)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
			b.Fatal(err)
		}
		return server.New(sub, opts...)
	}
	run := func(b *testing.B, s *server.Server) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			line := "SEARCH db " + strconv.FormatUint(uint64(i%nKeys), 16)
			if resp := s.Exec(line); !strings.HasPrefix(resp, "HIT") {
				b.Fatal(resp)
			}
		}
	}
	b.Run("instrumented", func(b *testing.B) { run(b, mk(b)) })
	b.Run("uninstrumented", func(b *testing.B) { run(b, mk(b, server.WithoutMetrics())) })
}

// BenchmarkRowMatch prices the row-match kernel: one full-row search
// (match vector, priority encode, extract) on an 8-slot 64-bit-key row,
// binary and ternary. It must report zero allocations.
func BenchmarkRowMatch(b *testing.B) {
	for _, tern := range []struct {
		name   string
		layout match.Layout
	}{
		{"binary", match.Layout{RowBits: 8*(1+64+32) + 8, KeyBits: 64, DataBits: 32}},
		{"ternary", match.Layout{RowBits: 8*(1+2*64+32) + 8, KeyBits: 64, DataBits: 32, Ternary: true}},
	} {
		sr := match.NewSearcher(tern.layout, 0)
		var res match.Result
		row := make([]uint64, bitutil.RowWords(tern.layout.RowBits))
		for i := 0; i < tern.layout.Slots(); i++ {
			if err := tern.layout.WriteSlot(row, i, match.Record{
				Key:  bitutil.Exact(bitutil.FromUint64(uint64(0x1000 + i*977))),
				Data: bitutil.FromUint64(uint64(i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		hit := bitutil.Exact(bitutil.FromUint64(uint64(0x1000 + 5*977)))
		b.Run(tern.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sr.SearchInto(&res, row, hit); !res.Matched() {
					b.Fatal("match lost")
				}
			}
		})
	}
}

// BenchmarkServerSearchZeroAlloc measures the end-to-end protocol hot
// path on its production API: ExecAppend into a reused reply buffer,
// request lines pre-built (a real connection reads them off the wire;
// building them is the client's cost). Both server variants must
// report 0 allocs/op — the PR 3 headline (before the rewrite this path
// cost 5 allocs and ~811 ns).
func BenchmarkServerSearchZeroAlloc(b *testing.B) {
	const nKeys = 4096
	mk := func(b *testing.B, opts ...server.Option) *server.Server {
		sub := subsystem.New(0)
		sl := caram.MustNew(caram.Config{
			IndexBits: 10, RowBits: 8*(1+64+32) + 8, KeyBits: 64, DataBits: 32,
			Index: hash.NewMultShift(10),
		})
		for k := 0; k < nKeys; k++ {
			if err := sl.Insert(match.Record{
				Key:  bitutil.Exact(bitutil.FromUint64(uint64(k))),
				Data: bitutil.FromUint64(uint64(k)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
			b.Fatal(err)
		}
		return server.New(sub, opts...)
	}
	lines := make([]string, nKeys)
	for k := range lines {
		lines[k] = "SEARCH db " + strconv.FormatUint(uint64(k), 16)
	}
	run := func(b *testing.B, s *server.Server) {
		buf := make([]byte, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = s.ExecAppend(buf[:0], lines[i%nKeys])
			if len(buf) < 3 || buf[0] != 'H' {
				b.Fatal(string(buf))
			}
		}
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b, mk(b, server.WithoutMetrics())) })
	b.Run("instrumented", func(b *testing.B) { run(b, mk(b)) })
}

// BenchmarkMSearchBatched measures the batched fan-out layer: 64-key
// MSEARCH batches spread over 4 engines, whose groups run one after
// another on the calling goroutine, each taking its engine's lock at
// most once per batch (instrumented variants additionally pay a single
// clock pair per engine group rather than per key). Reported per batch;
// divide by 64 for per-key cost.
func BenchmarkMSearchBatched(b *testing.B) {
	const (
		nEngines  = 4
		nKeys     = 4096
		batchSize = 64
	)
	mk := func(b *testing.B, instrument bool) *subsystem.Concurrent {
		sub := subsystem.New(0)
		for e := 0; e < nEngines; e++ {
			sl := caram.MustNew(caram.Config{
				IndexBits: 10, RowBits: 8*(1+64+32) + 8, KeyBits: 64, DataBits: 32,
				Index: hash.NewMultShift(10),
			})
			for k := 0; k < nKeys; k++ {
				if err := sl.Insert(match.Record{
					Key:  bitutil.Exact(bitutil.FromUint64(uint64(k))),
					Data: bitutil.FromUint64(uint64(k)),
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := sub.AddEngine(&subsystem.Engine{Name: fmt.Sprintf("e%d", e), Main: sl}); err != nil {
				b.Fatal(err)
			}
		}
		con := subsystem.NewConcurrent(sub)
		if instrument {
			con.Instrument(metrics.NewRegistry(con.Engines()))
		}
		return con
	}
	reqs := make([]subsystem.PortKey, batchSize)
	for i := range reqs {
		reqs[i] = subsystem.PortKey{
			Port: fmt.Sprintf("e%d", i%nEngines),
			Key:  bitutil.Exact(bitutil.FromUint64(uint64(i * 37 % nKeys))),
		}
	}
	run := func(b *testing.B, con *subsystem.Concurrent) {
		defer con.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := con.MSearch(reqs)
			if !out[0].Result.Found {
				b.Fatal("lost record")
			}
		}
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b, mk(b, false)) })
	b.Run("instrumented", func(b *testing.B) { run(b, mk(b, true)) })
}

// BenchmarkServedMSearch prices MSEARCH the way msearch-direct serves it:
// 64-key lines through Server.ExecAppend on a server configured as
// caram-server configures one (metrics on, a collector with a 10 ms
// slowlog), over the ladder's table — 600 k keys in 2¹⁷ rows × 8 slots,
// α = 0.57, ≈ 13 MB of rows, so each key's home row is a cache miss.
// BenchmarkMSearchBatched's four 2¹⁰-row engines stay cache-resident and
// hide both that stall and the per-key overhead around it. Reported per
// key, with the allocations of a whole line.
func BenchmarkServedMSearch(b *testing.B) {
	const (
		bits, slots = 17, 8
		nKeys       = 600_000
		batchSize   = 64
	)
	sl := caram.MustNew(caram.Config{
		IndexBits: bits, RowBits: slots*(1+64+32) + 16, KeyBits: 64, DataBits: 32, AuxBits: 16,
		Index: hash.NewMultShift(bits),
	})
	key := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }
	for i := 0; i < nKeys; i++ {
		if err := sl.Insert(match.Record{Key: bitutil.Exact(bitutil.FromUint64(key(i))), Data: bitutil.FromUint64(key(i) & 0xffffffff)}); err != nil {
			b.Fatal(err)
		}
	}
	sub := subsystem.New(0)
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		b.Fatal(err)
	}
	srv := server.New(sub, server.WithTracing(trace.NewCollector(trace.Config{Slowlog: 10 * time.Millisecond})))
	defer srv.Close()
	lines := make([]string, 1024)
	for i := range lines {
		line := []byte("MSEARCH")
		for j := 0; j < batchSize; j++ {
			k := key((i*batchSize + j) * 7919 % nKeys) // consecutive keys land on unrelated rows
			line = strconv.AppendUint(append(line, " db "...), k, 16)
		}
		lines[i] = string(line)
	}
	// A sub-benchmark, so the table is built once rather than per b.N.
	b.Run("ladder", func(b *testing.B) {
		dst := make([]byte, 0, 64*1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = srv.ExecAppend(dst[:0], lines[i%len(lines)])
			if len(dst) < 12 || string(dst[:12]) != "MRESULTS HIT" {
				b.Fatal(string(dst[:min(len(dst), 80)]))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize), "ns/key")
	})
}

// BenchmarkServedInsertBurst prices the load every caram-load set-up
// runs, §3.2's RAM-mode fill of a table over the wire: 600 000 INSERT
// lines, pipelined, through Server.Handle over two net.Pipe connections
// that carry half the keys each and are read back reply by reply, into
// the ladder's geometry (2¹⁷ rows × 8 slots, α = 0.57 once full) on a
// server configured as caram-server configures one (metrics on, a
// collector with a 10 ms slowlog). Each iteration loads a fresh table.
// Reported per insert.
func BenchmarkServedInsertBurst(b *testing.B) {
	const (
		bits, slots = 17, 8
		nKeys       = 600_000
		conns       = 2
	)
	key := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }
	streams := make([][]byte, conns)
	for i := 0; i < nKeys; i++ {
		p := append(streams[i%conns], "INSERT db "...)
		p = strconv.AppendUint(p, key(i), 16)
		p = strconv.AppendUint(append(p, ' '), key(i)&0xffffffff, 16)
		streams[i%conns] = append(p, '\n')
	}
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		sub := subsystem.New(0)
		sl := caram.MustNew(caram.Config{
			IndexBits: bits, RowBits: slots*(1+64+32) + 16, KeyBits: 64, DataBits: 32, AuxBits: 16,
			Index: hash.NewMultShift(bits),
		})
		if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
			b.Fatal(err)
		}
		srv := server.New(sub, server.WithTracing(trace.NewCollector(trace.Config{Slowlog: 10 * time.Millisecond})))
		b.StartTimer()
		var wg sync.WaitGroup
		errs := make(chan error, 2*conns)
		for _, stream := range streams {
			client, conn := net.Pipe()
			wg.Add(3)
			go func() { defer wg.Done(); srv.Handle(conn, conn); conn.Close() }()
			go func() {
				defer wg.Done()
				if _, err := client.Write(stream); err != nil {
					errs <- err
				}
			}()
			go func(n int) {
				defer wg.Done()
				defer client.Close()
				br := bufio.NewReaderSize(client, 64*1024)
				for i := 0; i < n; i++ {
					if line, err := br.ReadSlice('\n'); err != nil || string(line) != "OK\n" {
						errs <- fmt.Errorf("reply %d: %q, %v", i, line, err)
						return
					}
				}
			}(bytes.Count(stream, []byte{'\n'}))
		}
		wg.Wait()
		b.StopTimer()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
		if sl.Count() != nKeys {
			b.Fatalf("table holds %d records, want %d", sl.Count(), nKeys)
		}
		srv.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nKeys), "ns/insert")
}

// BenchmarkWritePath prices the write side next to BenchmarkMSearchBatched:
// an insert+delete pair of a fresh key (reported per pair), a duplicate
// INSERT (rejected by the exact-locate, nothing written) and a DELETE of
// an absent key, through subsystem.Engine — Slice.Insert/Delete on the
// exact and trigram layouts, the duplicated ternary placement on lpm —
// on a cache-resident table (2⁸ rows) and on the ladder's geometry
// (2¹⁷ rows × 8 slots; 2¹⁶ for lpm, its index generator's limit), both
// filled to α = 0.57. The ladder's caram.insert_ns + caram.delete_ns is
// exact/ladder/pair.
func BenchmarkWritePath(b *testing.B) {
	const alpha = 0.57
	prefix := func(v uint64, length int) bitutil.Ternary {
		mask := bitutil.Mask(32 - length)
		return bitutil.NewTernary(bitutil.FromUint64(v<<(32-length)&0xffffffff), mask)
	}
	for _, typ := range []struct {
		name string
		typ  subsystem.EngineType
		big  int
		key  func(i int) bitutil.Ternary // distinct for distinct i
	}{
		{"exact", subsystem.ExactEngine, 17, func(i int) bitutil.Ternary {
			return bitutil.Exact(bitutil.FromUint64(uint64(i+1) * 0x9e3779b97f4a7c15))
		}},
		// /24s, and one /15 in 32: its don't-care bits reach one hash
		// bit, so it is stored twice.
		{"lpm", subsystem.LPMEngine, 16, func(i int) bitutil.Ternary {
			if i%32 == 31 {
				return prefix(uint64(i/32)*0x4f1b&0x7fff, 15)
			}
			return prefix(uint64(i)*0x9e3779&0xffffff, 24)
		}},
		{"trigram", subsystem.TrigramEngine, 17, func(i int) bitutil.Ternary {
			lo := uint64(i+1) * 0x9e3779b97f4a7c15
			return bitutil.Exact(bitutil.FromParts(lo, ^lo*0xbf58476d1ce4e5b9))
		}},
	} {
		for _, size := range []struct {
			name string
			bits int
		}{{"cache", 8}, {"ladder", typ.big}} {
			b.Run(typ.name+"/"+size.name, func(b *testing.B) {
				e, err := subsystem.NewTypedEngine("w", typ.typ, subsystem.TypedConfig{IndexBits: size.bits, Slots: 8})
				if err != nil {
					b.Fatal(err)
				}
				rec := func(i int) match.Record {
					return match.Record{Key: typ.key(i), Data: bitutil.FromUint64(uint64(i & 0xffff))}
				}
				n := 0
				for ; e.Main.LoadFactor() < alpha; n++ {
					if err := e.Insert(rec(n), nil); err != nil {
						b.Fatal(err)
					}
				}
				const fresh = 1 << 17 // keys n .. n+fresh are never stored for longer than a pair
				b.Run("pair", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r := rec(n + i%fresh)
						if err := e.Insert(r, nil); err != nil {
							b.Fatal(err)
						}
						if err := e.Delete(r.Key); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("dup-insert", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := e.Insert(rec(i%n), nil); err != caram.ErrExists {
							b.Fatal(err)
						}
					}
				})
				b.Run("absent-delete", func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := e.Delete(typ.key(n + i%fresh)); err != caram.ErrNotFound {
							b.Fatal(err)
						}
					}
				})
				if v := e.Main.Verify(); v != "" {
					b.Fatal(v)
				}
			})
		}
	}
}
