package subsystem

import (
	"math"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/cam"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
	"caram/internal/workload"
)

func testSlice(t *testing.T, probe int, tech mem.Technology) *caram.Slice {
	t.Helper()
	return caram.MustNew(caram.Config{
		IndexBits:  8,
		RowBits:    4*(1+32+16) + 8,
		KeyBits:    32,
		DataBits:   16,
		Tech:       tech,
		ProbeLimit: probe,
		Index:      hash.NewMultShift(8),
	})
}

func rec(key, data uint64) match.Record {
	return match.Record{Key: bitutil.Exact(bitutil.FromUint64(key)), Data: bitutil.FromUint64(data)}
}

func TestEngineOverflowKeepsAMALOne(t *testing.T) {
	e := &Engine{
		Name:     "ip",
		Main:     testSlice(t, caram.NoProbing, mem.SRAM),
		Overflow: cam.MustNew(cam.Config{Entries: 256, KeyBits: 32}),
	}
	var st EngineStats
	// Overfill: 256 buckets x 4 slots = 1024 capacity; insert hot keys
	// that pile into few buckets to force overflow.
	n := 0
	for i := 0; i < 2000; i++ {
		if err := e.Insert(rec(uint64(i), uint64(i)), &st); err != nil {
			break
		}
		n++
	}
	if st.ToOverflow == 0 {
		t.Fatal("nothing overflowed; test not exercising the CAM")
	}
	if st.Inserted != n {
		t.Errorf("stats inserted=%d, placed %d", st.Inserted, n)
	}
	// Every record findable at exactly one row access.
	for i := 0; i < n; i++ {
		sr := e.Search(bitutil.Exact(bitutil.FromUint64(uint64(i))))
		if !sr.Found || sr.Record.Data.Uint64() != uint64(i) {
			t.Fatalf("key %d lost (found=%v)", i, sr.Found)
		}
		if sr.RowsRead != 1 {
			t.Fatalf("key %d cost %d rows; overflow should keep AMAL=1", i, sr.RowsRead)
		}
	}
	// AMAL over the whole engine is exactly 1.
	if amal := e.Main.Stats().AMAL(); amal != 1 {
		t.Errorf("AMAL = %f", amal)
	}
}

func TestEngineWithoutOverflowRejects(t *testing.T) {
	e := &Engine{Name: "x", Main: testSlice(t, caram.NoProbing, mem.SRAM)}
	var st EngineStats
	var sawErr bool
	for i := 0; i < 2000; i++ {
		if err := e.Insert(rec(uint64(i), 0), &st); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("engine accepted more than capacity")
	}
	if st.FailedInsert != 1 {
		t.Errorf("FailedInsert = %d", st.FailedInsert)
	}
}

func TestEngineScorePrefersOverflowRecord(t *testing.T) {
	// LPM-style: a longer prefix relegated to the overflow CAM must
	// still win over a shorter one in the main array.
	mainCfg := caram.Config{
		IndexBits:  2,
		RowBits:    1*(1+8+8+8) + 8, // one slot per bucket
		KeyBits:    8,
		DataBits:   8,
		Ternary:    true,
		ProbeLimit: caram.NoProbing,
		Index:      hash.NewBitSelect([]int{6, 7}),
	}
	e := &Engine{
		Name:     "lpm",
		Main:     caram.MustNew(mainCfg),
		Overflow: cam.MustNew(cam.Config{Entries: 16, KeyBits: 8, Kind: cam.Ternary}),
		Score:    func(r match.Record) int { return r.Key.Specificity(8) },
	}
	short, _ := bitutil.ParseTernary("11XXXXXX")
	long, _ := bitutil.ParseTernary("1100XXXX")
	var st EngineStats
	if err := e.Insert(match.Record{Key: short, Data: bitutil.FromUint64(1)}, &st); err != nil {
		t.Fatal(err)
	}
	// Same home bucket, single slot: the long prefix goes to overflow.
	if err := e.Insert(match.Record{Key: long, Data: bitutil.FromUint64(2)}, &st); err != nil {
		t.Fatal(err)
	}
	if st.ToOverflow != 1 {
		t.Fatalf("ToOverflow = %d", st.ToOverflow)
	}
	sr := e.Search(bitutil.Exact(bitutil.FromUint64(0b11000001)))
	if !sr.Found || sr.Record.Data.Uint64() != 2 || !sr.FromOvfl {
		t.Errorf("search = %+v, want overflow LPM win", sr)
	}
	// Address covered only by the short prefix.
	sr = e.Search(bitutil.Exact(bitutil.FromUint64(0b11110001)))
	if !sr.Found || sr.Record.Data.Uint64() != 1 || sr.FromOvfl {
		t.Errorf("search = %+v, want main-array match", sr)
	}
}

// The §3.4 bandwidth formula: an engine with N banks of DRAM (nmem=6)
// sustains ~N/6 requests per cycle under uniform saturating traffic.
func TestSimulateMatchesBandwidthFormula(t *testing.T) {
	for _, banks := range []int{1, 4, 8} {
		sl := caram.MustNew(caram.Config{
			IndexBits: 12,
			RowBits:   8*(1+32+16) + 8,
			KeyBits:   32,
			DataBits:  16,
			Tech:      mem.DRAM,
			Index:     hash.NewMultShift(12),
		})
		rng := workload.NewRand(3)
		keys := make([]bitutil.Ternary, 20000)
		for i := range keys {
			k := uint64(rng.Uint32())
			keys[i] = bitutil.Exact(bitutil.FromUint64(k))
			// Sparse load so AMAL stays 1.
			if i < 2000 {
				_ = sl.Insert(rec(k, 0))
			}
		}
		e := &Engine{Name: "bw", Main: sl, Banks: banks}
		res := e.Simulate(keys, TrafficConfig{QueueDepth: 256}, 1)
		want := float64(banks) / 6.0
		if math.Abs(res.ThroughputPerCy-want)/want > 0.15 {
			t.Errorf("banks=%d: throughput %.4f req/cy, formula %.4f",
				banks, res.ThroughputPerCy, want)
		}
		if res.RowAccesses < int64(len(keys)) {
			t.Errorf("banks=%d: rows=%d below request count", banks, res.RowAccesses)
		}
		// No bank busier than the makespan.
		for b, busy := range res.BankBusy {
			if busy < 0 || busy > res.Cycles {
				t.Errorf("banks=%d: bank %d busy %d of %d cycles", banks, b, busy, res.Cycles)
			}
		}
		// Absolute bandwidth at 200 MHz.
		hz := res.ThroughputHz(200e6)
		if hz < 0.8*want*200e6 || hz > 1.2*want*200e6 {
			t.Errorf("banks=%d: %f Hz", banks, hz)
		}
	}
}

func TestSimulateLowInjectionLatency(t *testing.T) {
	sl := testSlice(t, 0, mem.DRAM)
	for i := 0; i < 100; i++ {
		_ = sl.Insert(rec(uint64(i), 0))
	}
	keys := make([]bitutil.Ternary, 1000)
	rng := workload.NewRand(4)
	for i := range keys {
		keys[i] = bitutil.Exact(bitutil.FromUint64(uint64(rng.Intn(100))))
	}
	e := &Engine{Name: "lat", Main: sl, Banks: 4}
	// Far below saturation: latency ~ access + match, no queueing.
	res := e.Simulate(keys, TrafficConfig{InjectionPerCycle: 0.01}, 1)
	if res.AvgLatency > 20 {
		t.Errorf("unloaded latency = %.1f cycles", res.AvgLatency)
	}
	sat := e.Simulate(keys, TrafficConfig{}, 1)
	if sat.AvgLatency <= res.AvgLatency {
		t.Error("saturating traffic should increase latency")
	}
}

func TestSubsystemPorts(t *testing.T) {
	s := New(4)
	ip := &Engine{Name: "ip", Main: testSlice(t, 0, mem.SRAM)}
	tri := &Engine{Name: "trigram", Main: testSlice(t, 0, mem.SRAM)}
	if err := s.AddEngine(ip); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEngine(tri); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEngine(&Engine{Name: "ip", Main: ip.Main}); err == nil {
		t.Error("duplicate engine accepted")
	}
	if err := s.AddEngine(&Engine{}); err == nil {
		t.Error("unnamed engine accepted")
	}
	if got := s.Engines(); len(got) != 2 || got[0] != "ip" || got[1] != "trigram" {
		t.Errorf("Engines = %v", got)
	}

	if err := s.Insert("ip", rec(42, 4242)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("nope", rec(1, 1)); err == nil {
		t.Error("insert to missing port accepted")
	}
	if st := s.Stats("ip"); st.Inserted != 1 {
		t.Errorf("stats = %+v", st)
	}

	id1, err := s.Submit("ip", bitutil.Exact(bitutil.FromUint64(42)))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit("trigram", bitutil.Exact(bitutil.FromUint64(42)))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Error("request IDs collide")
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	r, ok := s.Poll()
	if !ok || r.ID != id1 || r.Port != "ip" || !r.Found || r.Record.Data.Uint64() != 4242 {
		t.Errorf("first result = %+v", r)
	}
	r, ok = s.Poll()
	if !ok || r.Found { // trigram engine is empty
		t.Errorf("second result = %+v", r)
	}
	if _, ok := s.Poll(); ok {
		t.Error("Poll on empty queue")
	}
	if _, err := s.Submit("nope", bitutil.Ternary{}); err == nil {
		t.Error("submit to missing port accepted")
	}

	// Queue backpressure.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit("ip", bitutil.Exact(bitutil.FromUint64(uint64(i)))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit("ip", bitutil.Ternary{}); err == nil {
		t.Error("full result queue accepted a request")
	}
	if e, ok := s.Engine("ip"); !ok || e != ip {
		t.Error("Engine accessor wrong")
	}
	if st := s.Stats("nope"); st != (EngineStats{}) {
		t.Error("missing port stats should be zero")
	}
}
