package subsystem

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/mem"
	"caram/internal/metrics"
)

// concurrentFixture builds a Concurrent layer over n engines named
// e0..e(n-1), each backed by a fresh test slice.
func concurrentFixture(t *testing.T, n int) (*Concurrent, []string) {
	t.Helper()
	sub := New(0)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("e%d", i)
		sl := testSlice(t, 0, mem.SRAM)
		if err := sub.AddEngine(&Engine{Name: names[i], Main: sl}); err != nil {
			t.Fatal(err)
		}
	}
	return NewConcurrent(sub), names
}

func exact(k uint64) bitutil.Ternary { return bitutil.Exact(bitutil.FromUint64(k)) }

func TestConcurrentBasics(t *testing.T) {
	c, names := concurrentFixture(t, 2)
	if got := c.Engines(); len(got) != 2 || got[0] != "e0" || got[1] != "e1" {
		t.Fatalf("Engines() = %v", got)
	}
	if err := c.Insert("e0", rec(7, 70)); err != nil {
		t.Fatal(err)
	}
	sr, err := c.Search("e0", exact(7))
	if err != nil || !sr.Found || sr.Record.Data.Uint64() != 70 {
		t.Fatalf("Search = %+v, %v", sr, err)
	}
	// The other engine stays empty — engines are independent databases.
	if sr, err := c.Search("e1", exact(7)); err != nil || sr.Found {
		t.Fatalf("cross-engine Search = %+v, %v", sr, err)
	}
	info, err := c.Info("e0")
	if err != nil || info.Count != 1 || info.Placement.Inserted != 1 {
		t.Fatalf("Info = %+v, %v", info, err)
	}
	if info.Stats.Lookups != 1 { // the one e0 search
		t.Errorf("Lookups = %d, want 1", info.Stats.Lookups)
	}
	if err := c.Delete("e0", exact(7)); err != nil {
		t.Fatal(err)
	}
	if sr, _ := c.Search("e0", exact(7)); sr.Found {
		t.Error("key survived Delete")
	}
	_ = names
}

// TestConcurrentErrors covers every method's unknown-engine path.
func TestConcurrentErrors(t *testing.T) {
	c, _ := concurrentFixture(t, 1)
	if err := c.Insert("nope", rec(1, 1)); err == nil || !strings.Contains(err.Error(), "no engine") {
		t.Errorf("Insert err = %v", err)
	}
	if _, err := c.Search("nope", exact(1)); err == nil {
		t.Error("Search on unknown engine succeeded")
	}
	if err := c.Delete("nope", exact(1)); err == nil {
		t.Error("Delete on unknown engine succeeded")
	}
	if out := c.MSearch([]PortKey{{Port: "nope", Key: exact(1)}}); out[0].Err == nil {
		t.Error("MSearch on unknown engine succeeded")
	}
	if _, err := c.Info("nope"); err == nil {
		t.Error("Info on unknown engine succeeded")
	}
}

func TestMSearchFanout(t *testing.T) {
	c, _ := concurrentFixture(t, 3)
	for e := 0; e < 3; e++ {
		for k := 0; k < 10; k++ {
			if err := c.Insert(fmt.Sprintf("e%d", e), rec(uint64(e*100+k), uint64(e*1000+k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	reqs := []PortKey{
		{Port: "e1", Key: exact(105)},  // hit
		{Port: "e0", Key: exact(3)},    // hit
		{Port: "nope", Key: exact(0)},  // unknown engine
		{Port: "e2", Key: exact(205)},  // hit
		{Port: "e0", Key: exact(9999)}, // miss
		{Port: "e1", Key: exact(101)},  // hit (same engine as slot 0)
	}
	res := c.MSearch(reqs)
	if len(res) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(res), len(reqs))
	}
	wantData := []int64{1005, 3, -1, 2005, -2, 1001} // -1 = error, -2 = miss
	for i, w := range wantData {
		r := res[i]
		switch {
		case w == -1:
			if r.Err == nil {
				t.Errorf("slot %d: expected error", i)
			}
		case w == -2:
			if r.Err != nil || r.Result.Found {
				t.Errorf("slot %d: expected miss, got %+v, %v", i, r.Result, r.Err)
			}
		default:
			if r.Err != nil || !r.Result.Found || r.Result.Record.Data.Uint64() != uint64(w) {
				t.Errorf("slot %d: want data %d, got %+v, %v", i, w, r.Result, r.Err)
			}
		}
	}
	if res := c.MSearch(nil); len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// TestStressConcurrentMixedOps hammers the Concurrent layer from many
// goroutines with mixed insert/search/delete/read traffic. Workers own
// disjoint key ranges, so each can assert its own sequential story
// (insert -> hit -> delete -> miss) even while the engines are shared.
// Run under -race this is the PR's core safety check.
func TestStressConcurrentMixedOps(t *testing.T) {
	const (
		workers = 32
		iters   = 80
		engines = 4
	)
	c, names := concurrentFixture(t, engines)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := names[g%engines]
			for i := 0; i < iters; i++ {
				// Keys stay within the slice's 32-bit key space and
				// data within its 16 data bits: worker id in the high
				// bits, iteration below.
				k := uint64(g)<<16 | uint64(i)
				d := uint64(g)<<8 | uint64(i&0xff) // fits DataBits: 16
				if err := c.Insert(eng, rec(k, d)); err != nil {
					t.Errorf("worker %d insert %x: %v", g, k, err)
					return
				}
				sr, err := c.Search(eng, exact(k))
				if err != nil || !sr.Found || sr.Record.Data.Uint64() != d {
					t.Errorf("worker %d search %x = %+v, %v", g, k, sr, err)
					return
				}
				// Batched search across every engine: only our own
				// engine can hold our key.
				reqs := make([]PortKey, engines)
				for e := range reqs {
					reqs[e] = PortKey{Port: names[e], Key: exact(k)}
				}
				for e, r := range c.MSearch(reqs) {
					if r.Err != nil {
						t.Errorf("worker %d msearch engine %d: %v", g, e, r.Err)
						return
					}
					if hit := r.Result.Found; hit != (names[e] == eng) {
						t.Errorf("worker %d msearch engine %d: found=%v", g, e, hit)
						return
					}
				}
				if sr, err := c.Search(eng, exact(k)); err != nil || !sr.Found {
					t.Errorf("worker %d search %x = %+v, %v", g, k, sr, err)
					return
				}
				if _, err := c.Info(eng); err != nil {
					t.Errorf("worker %d info: %v", g, err)
					return
				}
				if err := c.Delete(eng, exact(k)); err != nil {
					t.Errorf("worker %d delete %x: %v", g, k, err)
					return
				}
				if sr, _ := c.Search(eng, exact(k)); sr.Found {
					t.Errorf("worker %d: key %x survived delete", g, k)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Everything was deleted; engines must be empty and consistent.
	for _, n := range names {
		info, err := c.Info(n)
		if err != nil {
			t.Fatal(err)
		}
		if info.Count != 0 {
			t.Errorf("engine %s: %d records left after stress", n, info.Count)
		}
		if info.Placement.FailedInsert != 0 {
			t.Errorf("engine %s: %d failed inserts", n, info.Placement.FailedInsert)
		}
	}
}

// TestInstrumentedConcurrent pins the metrics contract at the lock
// boundary: every op is observed exactly once with its outcome, unknown
// ports hit the registry-level counter, and the gauge sampler reports
// the engine's live core state.
func TestInstrumentedConcurrent(t *testing.T) {
	c, names := concurrentFixture(t, 2)
	reg := metrics.NewRegistry(c.Engines())
	if c.Instrument(reg) != c || c.met != reg {
		t.Fatal("Instrument must return the receiver and retain the registry")
	}
	for k := uint64(1); k <= 3; k++ {
		if err := c.Insert("e0", rec(k, k*10)); err != nil {
			t.Fatal(err)
		}
	}
	if sr, err := c.Search("e0", exact(1)); err != nil || !sr.Found {
		t.Fatalf("Search = %+v, %v", sr, err)
	}
	if sr, err := c.Search("e0", exact(999)); err != nil || sr.Found {
		t.Fatalf("miss Search = %+v, %v", sr, err)
	}
	if err := c.Delete("e0", exact(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("e0", exact(999)); err == nil {
		t.Fatal("Delete of missing key succeeded")
	}
	c.MSearch([]PortKey{
		{Port: "e0", Key: exact(1)},
		{Port: "e1", Key: exact(1)},
		{Port: "nope", Key: exact(1)},
		{Port: "nope", Key: exact(2)},
	})
	if _, err := c.Search("ghost", exact(1)); err == nil {
		t.Fatal("unknown engine Search succeeded")
	}

	em := reg.Engine("e0")
	checks := []struct {
		op          metrics.Op
		count, errs uint64
	}{
		{metrics.OpInsert, 3, 0},
		{metrics.OpSearch, 2, 0},
		{metrics.OpDelete, 2, 1},
		{metrics.OpMSearch, 1, 0},
	}
	for _, ck := range checks {
		if em.Count(ck.op) != ck.count || em.Errors(ck.op) != ck.errs {
			t.Errorf("e0 %s = %d/%d, want %d/%d",
				ck.op, em.Count(ck.op), em.Errors(ck.op), ck.count, ck.errs)
		}
		if em.Latency(ck.op).N() != ck.count {
			t.Errorf("e0 %s latency N = %d, want %d", ck.op, em.Latency(ck.op).N(), ck.count)
		}
	}
	if got := reg.Engine("e1").Count(metrics.OpMSearch); got != 1 {
		t.Errorf("e1 msearch = %d, want 1", got)
	}
	if reg.Unknown() != 3 { // two msearch slots + one search
		t.Errorf("unknown = %d, want 3", reg.Unknown())
	}

	g, ok := em.SampleGauges()
	if !ok {
		t.Fatal("no gauges wired")
	}
	// 3 inserted - 1 deleted = 2 records; 2 searches + 1 msearch slot = 3
	// lookups (Delete probes rows but charges no lookup).
	if g.Records != 2 {
		t.Errorf("gauge records = %d, want 2", g.Records)
	}
	if g.Lookups != 3 || g.Hits != 2 || g.Misses != 1 {
		t.Errorf("gauge lookups/hits/misses = %d/%d/%d, want 3/2/1", g.Lookups, g.Hits, g.Misses)
	}
	if g.AMAL < 1 {
		t.Errorf("gauge AMAL = %v, want >= 1", g.AMAL)
	}
	if g.LoadFactor <= 0 {
		t.Errorf("gauge load factor = %v", g.LoadFactor)
	}
	_ = names
}

// TestUninstrumentedConcurrentUnchanged guards the nil-metrics fast
// path: without Instrument, ops run exactly as before and no registry
// is reachable.
func TestUninstrumentedConcurrentUnchanged(t *testing.T) {
	c, _ := concurrentFixture(t, 1)
	if c.met != nil {
		t.Fatal("fresh Concurrent has a registry")
	}
	if err := c.Insert("e0", rec(1, 1)); err != nil {
		t.Fatal(err)
	}
	if sr, err := c.Search("e0", exact(1)); err != nil || !sr.Found {
		t.Fatalf("Search = %+v, %v", sr, err)
	}
	if _, err := c.Search("nope", exact(1)); err == nil {
		t.Fatal("unknown engine accepted")
	}
}
