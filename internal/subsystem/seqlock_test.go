package subsystem

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/metrics"
	"caram/internal/trace"
)

// The Concurrent layer's side of the wait-free SEARCH contract: a
// search on an overflow-less engine performs no mutex operations (it
// cannot be blocked by a held engine lock), never returns a torn
// value, and every escalation is visible in the retry/fallback
// telemetry, the request trace, and the Prometheus exposition.

// seqlockSlice is a slice wide enough for the self-validating 32-bit
// payloads of the torn-read stress (testSlice carries only 16 data
// bits).
func seqlockSlice() *caram.Slice {
	return caram.MustNew(caram.Config{
		IndexBits: 6,
		RowBits:   4*(1+32+32) + 8,
		KeyBits:   32,
		DataBits:  32,
		Index:     hash.NewMultShift(6),
	})
}

// seqlockFixture builds a Concurrent over one overflow-less engine
// "e0" backed by a seqlockSlice, returning both.
func seqlockFixture(t *testing.T) (*Concurrent, *caram.Slice) {
	t.Helper()
	sub := New(0)
	sl := seqlockSlice()
	if err := sub.AddEngine(&Engine{Name: "e0", Main: sl}); err != nil {
		t.Fatal(err)
	}
	return NewConcurrent(sub), sl
}

// genPayload encodes a self-validating value: generation in the high
// half, a checksum binding key and generation in the low half, so a
// torn row cannot decode cleanly.
func genPayload(key uint64, gen uint32) uint64 {
	return uint64(gen)<<16 | uint64(genPayloadSum(key, gen))
}

func genPayloadSum(key uint64, gen uint32) uint16 {
	x := key*0x9E3779B97F4A7C15 ^ uint64(gen)*0xBF58476D1CE4E5B9
	return uint16(x >> 48)
}

func genPayloadValid(key, data uint64) bool {
	return uint16(data) == genPayloadSum(key, uint32(data>>16))
}

// TestSearchWaitFreeUnderHeldEngineLock is the code-level zero-mutex
// assertion: with the engine's port mutex held by the test, SEARCH,
// Contains, and MSEARCH on an overflow-less engine still complete —
// they cannot be touching the mutex. The SetLockedReads escape hatch
// inverts the property: the same search blocks until the lock is
// released.
func TestSearchWaitFreeUnderHeldEngineLock(t *testing.T) {
	c, _ := seqlockFixture(t)
	defer c.Close()
	if err := c.Insert("e0", rec(9, 90)); err != nil {
		t.Fatal(err)
	}

	g, _ := c.engine("e0")
	g.mu.Lock()
	done := make(chan error, 1)
	go func() {
		sr, err := c.Search("e0", exact(9))
		if err == nil && (!sr.Found || sr.Record.Data.Uint64() != 90) {
			err = errBadResult
		}
		if err == nil {
			if found, cerr := c.Contains("e0", exact(9)); cerr != nil || !found {
				err = errBadResult
			}
		}
		if err == nil {
			out := c.MSearch([]PortKey{{Port: "e0", Key: exact(9)}})
			if out[0].Err != nil || !out[0].Result.Found {
				err = errBadResult
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("lock-free search under held engine lock: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SEARCH blocked on the engine mutex; the path is not wait-free")
	}
	g.mu.Unlock()

	// The escape hatch serializes again: the same search now queues
	// behind the held lock and completes only once it is released.
	cl, _ := seqlockFixture(t)
	defer cl.Close()
	cl.SetLockedReads(true)
	if err := cl.Insert("e0", rec(9, 90)); err != nil {
		t.Fatal(err)
	}
	gl, _ := cl.engine("e0")
	gl.mu.Lock()
	lockedDone := make(chan error, 1)
	go func() {
		_, err := cl.Search("e0", exact(9))
		lockedDone <- err
	}()
	select {
	case <-lockedDone:
		t.Fatal("SetLockedReads(true) search completed through a held engine lock")
	case <-time.After(50 * time.Millisecond):
	}
	gl.mu.Unlock()
	select {
	case err := <-lockedDone:
		if err != nil {
			t.Fatalf("locked search after release: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("locked search never completed after the lock was released")
	}
}

var errBadResult = errors.New("bad lock-free result")

// TestSearchTornReadStress runs the torn-read/linearizability suite
// through the full Concurrent dispatch: reader goroutines issue
// c.Search (even readers) or c.MSearch batches (odd readers) while a
// writer churns keys through c.Delete/c.Insert with
// self-validating payloads. At this layer escalation is invisible
// (the dispatcher falls back to the serialized path itself), so EVERY
// search must return a legally published value, and permanent keys
// must hit on every single read.
func TestSearchTornReadStress(t *testing.T) {
	const (
		nReaders   = 16
		nPermanent = 10
		nChurn     = 6
		writerIter = 1000
		minReads   = 8_000
	)
	c, _ := seqlockFixture(t)
	defer c.Close()
	permKeys := make([]uint64, nPermanent)
	for i := range permKeys {
		permKeys[i] = uint64(0xA000 + i)
		if err := c.Insert("e0", rec(permKeys[i], genPayload(permKeys[i], 0))); err != nil {
			t.Fatalf("permanent insert %d: %v", i, err)
		}
	}
	churnKeys := make([]uint64, nChurn)
	for i := range churnKeys {
		churnKeys[i] = uint64(0xB000 + i)
		if err := c.Insert("e0", rec(churnKeys[i], genPayload(churnKeys[i], 0))); err != nil {
			t.Fatalf("churn insert %d: %v", i, err)
		}
	}

	var done atomic.Bool
	var reads atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < nReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// check judges one answer; at this layer every one counts.
			check := func(key uint64, permanent bool, sr SearchResult, err error) bool {
				if err != nil {
					t.Errorf("search %x: %v", key, err)
					return false
				}
				reads.Add(1)
				if permanent && !sr.Found {
					t.Errorf("permanent key %x missing (linearizability violation)", key)
					return false
				}
				if sr.Found && !genPayloadValid(key, sr.Record.Data.Uint64()) {
					t.Errorf("key %x returned unpublished value %#x (torn read)", key, sr.Record.Data.Uint64())
					return false
				}
				return true
			}
			// Odd readers send MSEARCH batches longer than one pipeline
			// chunk, permanent and churn keys alternating, so the staged
			// batch path runs against the writer too.
			batch := make([]PortKey, caram.BatchChunk+8)
			for i := 0; !done.Load(); i++ {
				if g%2 == 1 {
					for j := range batch {
						key := permKeys[(g+i+j)%nPermanent]
						if j%2 == 1 {
							key = churnKeys[(g+i+j)%nChurn]
						}
						batch[j] = PortKey{Port: "e0", Key: exact(key)}
					}
					for j, r := range c.MSearch(batch) {
						if !check(batch[j].Key.Value.Lo, j%2 == 0, r.Result, r.Err) {
							return
						}
					}
					runtime.Gosched()
					continue
				}
				var key uint64
				permanent := i%2 == 0
				if permanent {
					key = permKeys[(g+i)%nPermanent]
				} else {
					key = churnKeys[(g+i)%nChurn]
				}
				sr, err := c.Search("e0", exact(key))
				if !check(key, permanent, sr, err) {
					return
				}
				runtime.Gosched() // interleave with the writer on one CPU
			}
		}(g)
	}

	deadline := time.Now().Add(10 * time.Second)
	for gen := uint32(1); gen <= writerIter || (reads.Load() < minReads && time.Now().Before(deadline)); gen++ {
		k := churnKeys[int(gen)%nChurn]
		if err := c.Delete("e0", exact(k)); err != nil {
			t.Fatalf("delete gen %d: %v", gen, err)
		}
		if err := c.Insert("e0", rec(k, genPayload(k, gen))); err != nil {
			t.Fatalf("reinsert gen %d: %v", gen, err)
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no searches completed; harness exercised nothing")
	}
	retries, fallbacks, err := c.SearchRetries("e0")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("searches=%d retries=%d fallbacks=%d", reads.Load(), retries, fallbacks)
}

// TestForcedRetryTelemetry forces the lock-free path to retry and
// escalate (a write window held open over the key's home row), then
// asserts the whole telemetry chain: SearchRetries counters, the
// trace's retries event, and the caram_search_retries_total /
// caram_search_lock_fallbacks_total Prometheus families.
func TestForcedRetryTelemetry(t *testing.T) {
	sub := New(0)
	sl := seqlockSlice()
	if err := sub.AddEngine(&Engine{Name: "e0", Main: sl}); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry([]string{"e0"})
	c := NewConcurrent(sub).Instrument(reg)
	defer c.Close()

	key := uint64(0x1234)
	if err := c.Insert("e0", rec(key, 42)); err != nil {
		t.Fatal(err)
	}
	home := sl.Index(bitutil.FromUint64(key))

	// Window open: the Reader exhausts its retry budget, the dispatcher
	// falls back to the serialized path, and the caller still gets the
	// right answer.
	sl.Array().BeginRowMaint(home)
	tr := trace.New()
	sr, err := c.SearchTraced("e0", exact(key), tr)
	if err != nil || !sr.Found || sr.Record.Data.Uint64() != 42 {
		t.Fatalf("escalated search = %+v, %v", sr, err)
	}
	retries, fallbacks, err := c.SearchRetries("e0")
	if err != nil {
		t.Fatal(err)
	}
	if retries == 0 {
		t.Fatal("forced torn window produced no retries")
	}
	if fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", fallbacks)
	}

	// The trace carries exactly one retries event with the count, and a
	// lock_wait span from the serialized re-run.
	nRetryEv, nLockWait := 0, 0
	for _, ev := range tr.Events {
		switch ev.Kind {
		case trace.KindRetries:
			nRetryEv++
			if uint64(ev.Matches) != retries {
				t.Errorf("trace retries = %d, counter = %d", ev.Matches, retries)
			}
		case trace.KindLockWait:
			nLockWait++
		}
	}
	if nRetryEv != 1 || nLockWait != 1 {
		t.Fatalf("trace has %d retries events and %d lock_wait spans, want 1 and 1: %+v",
			nRetryEv, nLockWait, tr.Events)
	}

	// The exposition reports both families with the live counts.
	var b strings.Builder
	if err := metrics.WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	wantRetries := metrics.FamSearchRetries + `{engine="e0",engine_type="exact"} `
	wantFallbacks := metrics.FamLockFallbacks + `{engine="e0",engine_type="exact"} 1`
	if !strings.Contains(text, wantRetries) || strings.Contains(text, wantRetries+"0\n") {
		t.Errorf("exposition missing nonzero %s:\n%s", metrics.FamSearchRetries, text)
	}
	if !strings.Contains(text, wantFallbacks) {
		t.Errorf("exposition missing %s == 1", metrics.FamLockFallbacks)
	}

	// Window closed: the lock-free path certifies again, and the
	// fallback counter stays put.
	sl.Array().CommitRowUpdate(home)
	if sr, err := c.Search("e0", exact(key)); err != nil || !sr.Found {
		t.Fatalf("post-commit search = %+v, %v", sr, err)
	}
	if _, fb, _ := c.SearchRetries("e0"); fb != 1 {
		t.Fatalf("post-commit fallbacks = %d, want 1", fb)
	}
}
