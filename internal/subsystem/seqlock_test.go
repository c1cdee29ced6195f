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

// readTelemetry reads an engine's lock-free read counters — torn
// snapshots re-read, and reads escalated to the serialized path — as
// /metrics exports them.
func readTelemetry(c *Concurrent, port string) (retries, fallbacks uint64) {
	g, _ := c.engine(port)
	gs := c.sampleGauges(g)
	return gs.ReadRetries, gs.LockFallbacks
}

// TestSearchWaitFreeUnderHeldEngineLock is the code-level zero-mutex
// assertion: with the engine's port mutex held by the test, SEARCH and
// MSEARCH still complete — they cannot be touching the mutex.
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
	retries, fallbacks := readTelemetry(c, "e0")
	t.Logf("searches=%d retries=%d fallbacks=%d", reads.Load(), retries, fallbacks)
}

// TestForcedRetryTelemetry forces the lock-free path to retry and
// escalate (a write window held open over the key's home row), then
// asserts the whole telemetry chain — the engine's retry counters, the
// trace's retries event and lock_wait span, one observed search, and
// the caram_search_retries_total / caram_search_lock_fallbacks_total
// Prometheus families — for both entry points of the one read body.
//
// It also pins the body's clock rule: operation latency runs from
// admission, and lock_wait starts immediately before the port lock is
// taken. The abandoned attempt is made deliberately long (the Reader
// cache is empty and its constructor sleeps attemptDelay), so both
// bounds below hold by construction, never by luck: the observed
// latency includes the attempt, and the lock_wait span starts after it.
func TestForcedRetryTelemetry(t *testing.T) {
	const attemptDelay = 20 * time.Millisecond
	for _, tc := range []struct {
		name string
		read func(c *Concurrent, key bitutil.Ternary, tr *trace.Trace) (SearchResult, error)
	}{
		{"SearchServed", func(c *Concurrent, key bitutil.Ternary, tr *trace.Trace) (SearchResult, error) {
			return c.SearchServed("e0", key, nil, tr)
		}},
		{"Explain", func(c *Concurrent, key bitutil.Ternary, tr *trace.Trace) (SearchResult, error) {
			sr, _, err := c.Explain("e0", key, tr)
			return sr, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			g, _ := c.engine("e0")
			g.readers = newReaderCache(func() *caram.Reader {
				time.Sleep(attemptDelay)
				return sl.NewReader()
			})

			// Window open: the Reader exhausts its retry budget, the
			// dispatcher falls back to the serialized path, and the caller
			// still gets the right answer.
			sl.Array().BeginRowMaint(home)
			tr := trace.New()
			sr, err := tc.read(c, exact(key), tr)
			if err != nil || !sr.Found || sr.Record.Data.Uint64() != 42 {
				t.Fatalf("escalated search = %+v, %v", sr, err)
			}
			retries, fallbacks := readTelemetry(c, "e0")
			if retries == 0 {
				t.Fatal("forced torn window produced no retries")
			}
			if fallbacks != 1 {
				t.Fatalf("fallbacks = %d, want 1", fallbacks)
			}

			// The trace carries exactly one retries event with the count,
			// then one lock_wait span, then the serialized re-run's probe
			// chain (the abandoned attempt's partial chain is dropped).
			retryAt, lockAt, probeAt := -1, -1, -1
			for i, ev := range tr.Events {
				switch ev.Kind {
				case trace.KindRetries:
					if retryAt >= 0 {
						t.Errorf("second retries event at %d", i)
					}
					retryAt = i
					if uint64(ev.Matches) != retries {
						t.Errorf("trace retries = %d, counter = %d", ev.Matches, retries)
					}
				case trace.KindLockWait:
					if lockAt >= 0 {
						t.Errorf("second lock_wait span at %d", i)
					}
					lockAt = i
				case trace.KindProbe:
					if probeAt < 0 {
						probeAt = i
					}
				}
			}
			if !(0 <= retryAt && retryAt < lockAt && lockAt < probeAt) {
				t.Fatalf("retries at %d, lock_wait at %d, first probe at %d; want them in that order: %+v",
					retryAt, lockAt, probeAt, tr.Events)
			}

			// One search observed, timed from admission; lock_wait timed
			// from the lock, not from the abandoned attempt.
			em := reg.Engine("e0")
			if n := em.Count(metrics.OpSearch); n != 1 {
				t.Errorf("searches observed = %d, want 1", n)
			}
			if lat := time.Duration(em.Latency(metrics.OpSearch).Snapshot().SumNs); lat < attemptDelay {
				t.Errorf("observed latency %v excludes the abandoned %v attempt", lat, attemptDelay)
			}
			if off := tr.Events[lockAt].Offset; off < attemptDelay {
				t.Errorf("lock_wait starts at +%v, inside the abandoned %v attempt", off, attemptDelay)
			}

			// The exposition reports both families with the live counts.
			var b strings.Builder
			if _, err := reg.Exposition().WriteTo(&b); err != nil {
				t.Fatal(err)
			}
			text := b.String()
			wantRetries := `caram_search_retries_total{engine="e0",engine_type="exact"} `
			wantFallbacks := `caram_search_lock_fallbacks_total{engine="e0",engine_type="exact"} 1`
			if !strings.Contains(text, wantRetries) || strings.Contains(text, wantRetries+"0\n") {
				t.Errorf("exposition missing nonzero %s:\n%s", wantRetries, text)
			}
			if !strings.Contains(text, wantFallbacks) {
				t.Errorf("exposition missing %s", wantFallbacks)
			}

			// Window closed: the lock-free path certifies again, and the
			// fallback counter stays put.
			sl.Array().CommitRowUpdate(home)
			if sr, err := c.Search("e0", exact(key)); err != nil || !sr.Found {
				t.Fatalf("post-commit search = %+v, %v", sr, err)
			}
			if _, fb := readTelemetry(c, "e0"); fb != 1 {
				t.Fatalf("post-commit fallbacks = %d, want 1", fb)
			}
		})
	}
}
