package subsystem

import (
	"testing"

	"caram/internal/bitutil"
)

// MSEARCH as a batch pipeline, seen from the dispatch layer: an ECC
// anomaly escalates exactly the keys it touches while the rest of the
// batch stays lock-free, and the bookkeeping around the pipeline costs
// two allocations however many keys ride in the batch.

// TestMSearchBatchEscalatesPerKey: one key's home row fails its check
// word, then sits in quarantine. Each time the batch still answers every
// slot correctly, and the engine's fallback counter rises by exactly the
// number of keys whose home is that row — nobody else left the
// lock-free path.
func TestMSearchBatchEscalatesPerKey(t *testing.T) {
	sub := New(0)
	sl := eccSlice(t, 8)
	if err := sub.AddEngine(&Engine{Name: "db", Main: sl}); err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(sub)
	defer c.Close()
	reqs := make([]PortKey, 64)
	for i := range reqs {
		if err := c.Insert("db", rec(uint64(i), uint64(i)+1)); err != nil {
			t.Fatal(err)
		}
		reqs[i] = PortKey{Port: "db", Key: exact(uint64(i))}
	}
	victim := sl.Index(bitutil.FromUint64(7))
	onVictim := uint64(0)
	for i := range reqs {
		if sl.Reach(sl.Index(reqs[i].Key.Value)) != 0 {
			t.Fatalf("key %d has a displaced chain; the fixture should be sparse", i)
		}
		if sl.Index(reqs[i].Key.Value) == victim {
			onVictim++
		}
	}
	run := func(stage string, escalated uint64, erred bool) {
		t.Helper()
		_, before := readTelemetry(c, "db")
		for i, r := range c.MSearch(reqs) {
			bad := erred && sl.Index(reqs[i].Key.Value) == victim
			if r.Err != nil || r.Result.Erred != bad || r.Result.Found == bad ||
				(r.Result.Found && r.Result.Record.Data.Uint64() != uint64(i)+1) {
				t.Fatalf("%s: slot %d = %+v, err %v", stage, i, r.Result, r.Err)
			}
		}
		if _, after := readTelemetry(c, "db"); after-before != escalated {
			t.Fatalf("%s: fallbacks rose by %d, want %d", stage, after-before, escalated)
		}
	}
	run("clean", 0, false)
	sl.Array().PeekRow(victim)[0] ^= 1 << 5
	run("check-word mismatch", onVictim, false) // the locked leftover corrects in place
	run("corrected", 0, false)
	corruptRow(sl, victim, 3, 97)
	run("uncorrectable", onVictim, true) // the locked leftover quarantines
	run("quarantined", onVictim, true)
	if _, err := c.Scrub("db"); err != nil {
		t.Fatal(err)
	}
	run("scrubbed", 0, false)
}

// TestMSearchAllocs guards MSearch's bookkeeping: a 64-key batch, on one
// engine or spread over four, allocates the result slice and the
// grouping slab, nothing else — every group runs on the caller, so
// there is no handoff to pay for. Run by `make alloc-guard`.
func TestMSearchAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		engines int
	}{{"one engine", 1}, {"four engines", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			var c *Concurrent
			names := []string{"e0"}
			if tc.engines == 1 {
				c, _ = seqlockFixture(t)
			} else {
				c, names = concurrentFixture(t, tc.engines)
			}
			defer c.Close()
			reqs := make([]PortKey, 64)
			for i := range reqs {
				port := names[i/2%len(names)]
				if i%2 == 0 {
					if err := c.Insert(port, rec(uint64(i), uint64(i))); err != nil {
						t.Fatal(err)
					}
				}
				reqs[i] = PortKey{Port: port, Key: exact(uint64(i))}
			}
			c.MSearch(reqs) // warm the pooled Readers
			if n := testing.AllocsPerRun(100, func() {
				if out := c.MSearch(reqs); !out[0].Result.Found || out[1].Result.Found {
					t.Fatal("wrong answer")
				}
			}); n > 2 {
				t.Fatalf("MSearch allocated %.1f times per 64-key batch over %d engines, want <= 2", n, tc.engines)
			}
		})
	}
}
