package subsystem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/fault"
	"caram/internal/hash"
)

// TestChaosSeqlockUnderConcurrentScrub is the PR 6 extension of the
// fault-injection capstone: the same four ECC-protected engines with
// live injectors, but now (a) searches ride the lock-free seqlock path
// wherever eligible, (b) dedicated reader goroutines hammer SEARCH /
// Contains throughout, and (c) a scrubber goroutine runs Scrub
// concurrently with the fault phase — so quarantine, repair, and
// lock-free reads all overlap. Health is no longer monotone (scrub is
// the transition allowed to lower it), so the monitor instead asserts
// the PR 5 fault-accounting invariants that survive mid-phase scrubs:
//
//   - Uncorrectable and ScrubRepairedBits are monotone counters;
//   - ScrubRepairedBits <= 2*Uncorrectable at every instant (a scrub
//     can only repair bits that a double flip quarantined first).
//
// The no-silently-missing-key property holds throughout, and after the
// final quiesce + scrub the books must reconcile against the
// injector's ledger exactly as in TestChaosEngineUnderFaults — the
// concurrent scrubs must not leak or double-count a single bit.
func TestChaosSeqlockUnderConcurrentScrub(t *testing.T) {
	const (
		nEngines   = 4
		nWorkers   = 24
		nReaders   = 8
		iterations = 120
	)
	sub := New(0)
	names := make([]string, 0, nEngines)
	slices := make([]*caram.Slice, 0, nEngines)
	injs := make([]*fault.Injector, 0, nEngines)
	for i := 0; i < nEngines; i++ {
		name := fmt.Sprintf("cs%d", i)
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
			Seed:     int64(4000 + i),
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

	// Permanent keys inserted before injection: until the final scrub a
	// read may legitimately report an explicit miss-with-error (the row
	// can be quarantined), but never a silent miss.
	permKeys := make([]uint64, 16)
	for i := range permKeys {
		permKeys[i] = uint64(0xCAF0 + i)
		port := names[i%nEngines]
		if err := c.Insert(port, rec(permKeys[i], permKeys[i]&0xffff)); err != nil {
			t.Fatalf("permanent insert %x on %s: %v", permKeys[i], port, err)
		}
	}
	for _, in := range injs {
		in.Enable()
	}

	// Invariant monitor: the accounting properties that survive
	// concurrent scrubs (health itself may now go down mid-phase).
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		lastUncorrectable := make([]uint64, nEngines)
		lastScrubbed := make([]uint64, nEngines)
		for {
			for i, name := range names {
				hi, err := c.HealthInfo(name)
				if err != nil {
					t.Errorf("health info %s: %v", name, err)
					return
				}
				if hi.Ecc.Uncorrectable < lastUncorrectable[i] {
					t.Errorf("%s: Uncorrectable regressed %d -> %d",
						name, lastUncorrectable[i], hi.Ecc.Uncorrectable)
					return
				}
				if hi.Ecc.ScrubRepairedBits < lastScrubbed[i] {
					t.Errorf("%s: ScrubRepairedBits regressed %d -> %d",
						name, lastScrubbed[i], hi.Ecc.ScrubRepairedBits)
					return
				}
				if hi.Ecc.ScrubRepairedBits > 2*hi.Ecc.Uncorrectable {
					t.Errorf("%s: scrub repaired %d bits from only %d uncorrectable events",
						name, hi.Ecc.ScrubRepairedBits, hi.Ecc.Uncorrectable)
					return
				}
				lastUncorrectable[i] = hi.Ecc.Uncorrectable
				lastScrubbed[i] = hi.Ecc.ScrubRepairedBits
			}
			select {
			case <-stopMon:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	// The scrubber: repairs run CONCURRENTLY with faults and lock-free
	// reads, round-robin across engines.
	stopScrub := make(chan struct{})
	var scrubWG sync.WaitGroup
	var scrubs atomic.Uint64
	scrubWG.Add(1)
	go func() {
		defer scrubWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopScrub:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if _, err := c.Scrub(names[i%nEngines]); err != nil {
				t.Errorf("concurrent scrub %s: %v", names[i%nEngines], err)
				return
			}
			scrubs.Add(1)
		}
	}()

	// Dedicated seqlock readers: SEARCH and Contains on the permanent
	// keys, concurrent with writers, faults, and scrubs.
	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	var permReads atomic.Uint64
	for r := 0; r < nReaders; r++ {
		readWG.Add(1)
		go func(r int) {
			defer readWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopRead:
					return
				default:
				}
				key := permKeys[(r+i)%len(permKeys)]
				port := names[((r+i)%len(permKeys))%nEngines]
				sr, err := c.Search(port, exact(key))
				switch {
				case errors.Is(err, ErrEngineUnavailable):
				case err != nil:
					t.Errorf("reader search %x on %s: %v", key, port, err)
					return
				case !sr.Found && !sr.Erred:
					t.Errorf("permanent key %x silently missing on %s", key, port)
					return
				case sr.Found && sr.Record.Data.Uint64() != key&0xffff:
					t.Errorf("permanent key %x returned corrupt data %#x", key, sr.Record.Data.Uint64())
					return
				}
				switch r := c.MSearch([]PortKey{{Port: port, Key: exact(key)}})[0]; {
				case errors.Is(r.Err, ErrEngineUnavailable):
				case r.Err != nil:
					t.Errorf("reader msearch %x on %s: %v", key, port, r.Err)
					return
				case r.Result.Found && r.Result.Record.Data.Uint64() != key&0xffff:
					t.Errorf("permanent key %x returned corrupt data %#x through MSEARCH", key, r.Result.Record.Data.Uint64())
					return
				}
				permReads.Add(1)
			}
		}(r)
	}

	// Writers: same mixed-operation churn as the capstone, disjoint key
	// spaces, every kept key demanded back after the final scrub.
	expected := make([][]uint64, nWorkers)
	var wg sync.WaitGroup
	for gid := 0; gid < nWorkers; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + gid)))
			port := names[gid%nEngines]
			for i := 0; i < iterations; i++ {
				key := uint64(gid)<<16 | uint64(i)
				err := c.Insert(port, rec(key, key&0xffff))
				switch {
				case err == nil:
				case errors.Is(err, ErrEngineUnavailable),
					errors.Is(err, caram.ErrFull):
					continue
				default:
					t.Errorf("insert %x on %s: %v", key, port, err)
					continue
				}
				if sr, err := c.Search(port, exact(key)); err == nil && !sr.Found && !sr.Erred {
					t.Errorf("stored key %x silently missing on %s", key, port)
				}
				if i%7 == 3 {
					out := c.MSearch([]PortKey{{Port: port, Key: exact(key)}})
					if r := out[0]; r.Err == nil && !r.Result.Found && !r.Result.Erred {
						t.Errorf("stored key %x silently missing from MSearch on %s", key, port)
					}
				}
				if rng.Float64() < 0.85 {
					switch err := c.Delete(port, exact(key)); {
					case err == nil:
					case errors.Is(err, ErrEngineUnavailable),
						errors.Is(err, caram.ErrNotFound):
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
	close(stopRead)
	readWG.Wait()
	close(stopScrub)
	scrubWG.Wait()
	close(stopMon)
	monWG.Wait()

	// Quiesce and reconcile: the concurrent scrubs must leave the exact
	// same global ledger as the capstone's single post-hoc scrub.
	for i, name := range names {
		injs[i].Disable()
		if _, err := c.Scrub(name); err != nil {
			t.Fatalf("final scrub %s: %v", name, err)
		}
	}
	var totalFlips uint64
	for i, name := range names {
		cnt := injs[i].Counts()
		est := slices[i].EccStats()
		totalFlips += cnt.BitsFlipped
		retries, fallbacks := readTelemetry(c, name)
		t.Logf("%s: singles=%d doubles=%d stuck=%d readerrs=%d | corrected=%d uncorrectable=%d scrub_bits=%d | seq retries=%d fallbacks=%d",
			name, cnt.SingleFlips, cnt.DoubleFlips, cnt.StuckAsserts, cnt.ReadErrors,
			est.CorrectedBits, est.Uncorrectable, est.ScrubRepairedBits, retries, fallbacks)
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
			t.Errorf("%s: %d rows still quarantined after final scrub", name, q)
		}
	}
	if totalFlips == 0 {
		t.Error("chaos run injected no faults; the harness is not exercising anything")
	}
	if permReads.Load() == 0 {
		t.Error("no dedicated lock-free reads completed")
	}
	t.Logf("concurrent scrubs=%d dedicated reads=%d", scrubs.Load(), permReads.Load())

	// Every kept key answers cleanly on the repaired arrays.
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
