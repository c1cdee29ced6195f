package subsystem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/fault"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/trace"
)

// TestChaosEngineUnderFaults is the fault-injection capstone: 32
// goroutines of mixed operations against four ECC-protected engines
// whose memory arrays have live fault injectors (random single/double
// bit flips, transient read errors, latency spikes, plus stuck cells on
// engine 0; engine 3 is the §4.3 no-probing array, whose full home
// buckets refuse inserts with ErrFull; an insert that meets a row it
// cannot read refuses with ErrUnreadable). Throughout
// the fault phase it asserts:
//
//   - no operation panics, deadlocks, or reports an unexpected error;
//   - no stored key is ever SILENTLY missing — a lookup of a live key
//     either hits or reports the explicit miss-with-error (Erred);
//   - each engine's health is monotone non-decreasing (no scrub runs
//     during the phase, so no transition may lower it).
//
// Then it quiesces, disables injection, scrubs every engine, and
// reconciles the books exactly — every counter on the ECC side must
// account for the injector's ledger, bit for bit:
//
//	CorrectedBits          == SingleFlips + StuckAsserts
//	Uncorrectable          == DoubleFlips
//	ScrubRepairedBits      == 2 * DoubleFlips
//	ecc ReadErrors         == injector ReadErrors
//	Corrected + ScrubBits  == BitsFlipped
//
// and every key the workers kept must be found cleanly.
func TestChaosEngineUnderFaults(t *testing.T) {
	const (
		nEngines   = 4
		nWorkers   = 32
		iterations = 120
	)
	sub := New(0)
	names := make([]string, 0, nEngines)
	slices := make([]*caram.Slice, 0, nEngines)
	injs := make([]*fault.Injector, 0, nEngines)
	for i := 0; i < nEngines; i++ {
		name := fmt.Sprintf("ch%d", i)
		cfg := caram.Config{
			IndexBits: 6,
			RowBits:   4*(1+32+16) + 8,
			KeyBits:   32,
			DataBits:  16,
			Index:     hash.NewMultShift(6),
			ECC:       true,
		}
		if i == 3 {
			cfg.ProbeLimit = caram.NoProbing
		}
		sl := caram.MustNew(cfg)
		fcfg := fault.Config{
			Seed:     int64(1000 + i),
			PSingle:  0.01,
			PDouble:  0.002,
			PReadErr: 0.005,
			PSpike:   0.01,
		}
		if i == 0 {
			fcfg.Stuck = []fault.StuckCell{
				{Row: 9, Word: 0, Bit: 13, Value: 1},
				{Row: 40, Word: 2, Bit: 7, Value: 1},
			}
		}
		in := fault.New(fcfg)
		sl.Array().InstallFaults(in)
		if err := sub.AddEngine(&Engine{Name: name, Main: sl}); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		slices = append(slices, sl)
		injs = append(injs, in)
	}
	c := NewConcurrent(sub)
	defer c.Close()
	for _, in := range injs {
		in.Enable()
	}

	// Health monitor: no scrub runs during the fault phase, so each
	// engine's health may only rise.
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		last := make([]Health, nEngines)
		for {
			for i, name := range names {
				h, err := c.Health(name)
				if err != nil {
					t.Errorf("health %s: %v", name, err)
					return
				}
				if h < last[i] {
					t.Errorf("engine %s health regressed %v -> %v without a scrub", name, last[i], h)
					return
				}
				last[i] = h
			}
			select {
			case <-stopMon:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	// Workers: disjoint key spaces (gid<<16 | i), each tracking the
	// keys it kept so the post-scrub sweep can demand them all back.
	expected := make([][]uint64, nWorkers)
	var wg sync.WaitGroup
	for gid := 0; gid < nWorkers; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + gid)))
			port := names[gid%nEngines]
			for i := 0; i < iterations; i++ {
				key := uint64(gid)<<16 | uint64(i)
				err := c.Insert(port, rec(key, key&0xffff))
				switch {
				case err == nil:
				case errors.Is(err, ErrEngineUnavailable),
					errors.Is(err, caram.ErrFull),
					errors.Is(err, caram.ErrUnreadable): // a row on the chain could not be read
					continue // not stored; nothing to track
				default:
					t.Errorf("insert %x on %s: %v", key, port, err)
					continue
				}
				// The key is stored: until deleted, every observation
				// must be a hit or an explicit miss-with-error.
				if sr, err := c.Search(port, exact(key)); err == nil && !sr.Found && !sr.Erred {
					t.Errorf("stored key %x silently missing on %s", key, port)
				}
				if i%7 == 3 {
					out := c.MSearch([]PortKey{{Port: port, Key: exact(key)}})
					if r := out[0]; r.Err == nil && !r.Result.Found && !r.Result.Erred {
						t.Errorf("stored key %x silently missing from MSearch on %s", key, port)
					}
				}
				if i%11 == 5 {
					if sr, _, err := c.Explain(port, exact(key), trace.New()); err == nil && !sr.Found && !sr.Erred {
						t.Errorf("stored key %x silently missing from Explain on %s", key, port)
					}
				}
				if rng.Float64() < 0.85 {
					switch err := c.Delete(port, exact(key)); {
					case err == nil:
					case errors.Is(err, ErrEngineUnavailable),
						errors.Is(err, caram.ErrNotFound):
						// Breaker tripped: the record is still stored.
						// (A delete that found nothing keeps the key
						// expected, so the final audit reports it.)
						expected[gid] = append(expected[gid], key)
					default:
						t.Errorf("delete %x on %s: %v", key, port, err)
					}
				} else {
					expected[gid] = append(expected[gid], key)
				}
			}
		}(gid)
	}
	wg.Wait()
	close(stopMon)
	monWG.Wait()

	// Quiesce: stop injecting, scrub, reconcile the books exactly.
	for i, name := range names {
		injs[i].Disable()
		if _, err := c.Scrub(name); err != nil {
			t.Fatalf("scrub %s: %v", name, err)
		}
	}
	var totalFlips uint64
	for i, name := range names {
		cnt := injs[i].Counts()
		est := slices[i].EccStats()
		totalFlips += cnt.BitsFlipped
		t.Logf("%s: fetches=%d singles=%d doubles=%d stuck=%d readerrs=%d spikes=%d | corrected=%d uncorrectable=%d scrub_bits=%d skips=%d",
			name, cnt.Fetches, cnt.SingleFlips, cnt.DoubleFlips, cnt.StuckAsserts,
			cnt.ReadErrors, cnt.Spikes, est.CorrectedBits, est.Uncorrectable,
			est.ScrubRepairedBits, est.QuarantineSkips)
		if est.CorrectedBits != cnt.SingleFlips+cnt.StuckAsserts {
			t.Errorf("%s: corrected %d != singles %d + stuck %d",
				name, est.CorrectedBits, cnt.SingleFlips, cnt.StuckAsserts)
		}
		if est.Uncorrectable != cnt.DoubleFlips {
			t.Errorf("%s: uncorrectable %d != doubles %d", name, est.Uncorrectable, cnt.DoubleFlips)
		}
		if est.ScrubRepairedBits != 2*cnt.DoubleFlips {
			t.Errorf("%s: scrub-repaired bits %d != 2*doubles %d",
				name, est.ScrubRepairedBits, cnt.DoubleFlips)
		}
		if est.ReadErrors != cnt.ReadErrors {
			t.Errorf("%s: ecc read errors %d != injected %d", name, est.ReadErrors, cnt.ReadErrors)
		}
		if got := est.CorrectedBits + est.ScrubRepairedBits; got != cnt.BitsFlipped {
			t.Errorf("%s: corrected+scrubbed %d != flipped %d", name, got, cnt.BitsFlipped)
		}
		if q := slices[i].QuarantinedRows(); q != 0 {
			t.Errorf("%s: %d rows still quarantined after scrub", name, q)
		}
		if h, _ := c.Health(name); h != Healthy {
			t.Errorf("%s: health %v after scrub, want healthy", name, h)
		}
	}
	if totalFlips == 0 {
		t.Error("chaos run injected no faults; the harness is not exercising anything")
	}

	// Every kept key answers cleanly now that the arrays are repaired.
	lost := 0
	for gid, keys := range expected {
		port := names[gid%nEngines]
		for _, key := range keys {
			if sr, err := c.Search(port, exact(key)); err != nil || !sr.Found || sr.Erred {
				t.Errorf("key %x on %s lost after scrub: %+v, %v", key, port, sr, err)
				lost++
				if lost > 10 {
					t.Fatal("too many lost keys; aborting sweep")
				}
			}
		}
	}
}

// TestDuplicatedDeleteAfterReadFaults: a read fault during a duplicated
// insert cannot leave a copy behind its delete. A /15 has homes 0 and 1
// on an IndexBits-4 lpm engine; home 0 is full, so its copy probes down
// home 1's chain, and a transient read error (an injector armed for the
// insert alone) hits the rows it probes. Had the first copy passed over
// an unreadable row 1 and the second then landed in it, the delete
// through home 0 would take the second copy, home 1's would find
// nothing, and the first would answer for the deleted prefix. Per seed
// the insert either stores both copies or refuses with ErrUnreadable;
// either way, after the delete nothing of the /15 remains and
// 10.0.5.1, under it alone, misses.
func TestDuplicatedDeleteAfterReadFaults(t *testing.T) {
	prefix := func(addr uint64, plen int) bitutil.Ternary {
		return bitutil.NewTernary(bitutil.FromUint64(addr), bitutil.FromUint64(1<<uint(32-plen)-1))
	}
	p15 := prefix(0x0a000000, 15)
	addr := bitutil.Exact(bitutil.FromUint64(0x0a000501))
	outcomes := map[error]int{}
	for seed := int64(0); seed < 400; seed++ {
		e, err := NewTypedEngine("ip", LPMEngine, TypedConfig{IndexBits: 4, Slots: 2, ECC: true})
		if err != nil {
			t.Fatal(err)
		}
		if homes := e.Sel.TernaryIndices(p15); len(homes) != 2 || homes[0] != 0 || homes[1] != 1 {
			t.Fatalf("the /15's homes are %v, want [0 1]", homes)
		}
		for _, a := range []uint64{0x0a000100, 0x0a000200} { // home 0's two slots
			if err := e.Insert(match.Record{Key: prefix(a, 24), Data: bitutil.FromUint64(24)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		inj := fault.New(fault.Config{Seed: seed, PReadErr: 0.5})
		e.Main.Array().InstallFaults(inj)
		inj.Enable()
		ierr := e.Insert(match.Record{Key: p15, Data: bitutil.FromUint64(15)}, nil)
		inj.Disable()
		if ierr != nil && !errors.Is(ierr, caram.ErrUnreadable) {
			t.Fatalf("seed %d: insert: %v", seed, ierr)
		}
		outcomes[ierr]++
		switch derr := e.Delete(p15); {
		case ierr == nil && derr != nil:
			t.Fatalf("seed %d: delete of the stored /15: %v", seed, derr)
		case ierr != nil && !errors.Is(derr, caram.ErrNotFound):
			t.Fatalf("seed %d: delete of the refused /15: %v", seed, derr)
		}
		e.Main.Records(func(b uint32, slot int, r match.Record) bool {
			if r.Key.Equal(p15) {
				t.Errorf("seed %d: a copy of the deleted /15 remains at bucket %d slot %d", seed, b, slot)
			}
			return true
		})
		if sr := e.Search(addr); sr.Found || sr.Erred {
			t.Fatalf("seed %d: 10.0.5.1 after the delete: found %v hop %d erred %v, want a clean miss",
				seed, sr.Found, sr.Record.Data.Uint64(), sr.Erred)
		}
		if v := e.Main.Verify(); v != "" {
			t.Fatalf("seed %d: %s", seed, v)
		}
	}
	if outcomes[nil] == 0 || outcomes[caram.ErrUnreadable] == 0 {
		t.Fatalf("outcomes %v: want seeds that stored the /15 and seeds that refused it", outcomes)
	}
	t.Logf("insert outcomes over 400 seeds: %v", outcomes)
}
