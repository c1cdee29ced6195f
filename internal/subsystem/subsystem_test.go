package subsystem

import (
	"math"
	"testing"

	"caram/internal/bitutil"
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
	if st := s.stats["ip"]; st.Inserted != 1 {
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
	if s.engines["ip"] != ip {
		t.Error("engine registry wrong")
	}
}
