package caram

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"caram/internal/bitutil"
	"caram/internal/hash"
	"caram/internal/match"
)

// The lock-free Reader's proof obligations, exercised at the caram
// layer: agreement with the locked lookup, no torn observation under a
// concurrent writer (self-validating payloads, run under -race by
// `make seqlock-guard`), clean escalation on every condition the
// protocol cannot certify, and a zero-allocation steady state.

// seqSlice builds a slice wide enough to embed a generation+checksum
// payload: 32-bit keys, 32-bit data, 16 rows x 4 slots.
func seqSlice(ecc bool) *Slice {
	return MustNew(Config{
		IndexBits: 4,
		RowBits:   4*(1+32+32) + 8,
		KeyBits:   32,
		DataBits:  32,
		Index:     hash.NewMultShift(4),
		ECC:       ecc,
	})
}

func seqRec(key, data uint64) match.Record {
	return match.Record{Key: bitutil.Exact(bitutil.FromUint64(key)), Data: bitutil.FromUint64(data)}
}

func seqKey(k uint64) bitutil.Ternary { return bitutil.Exact(bitutil.FromUint64(k)) }

// payload encodes a self-validating value: the generation in the high
// half, a checksum binding key and generation in the low half. A torn
// row that mixes two publications cannot decode cleanly.
func payload(key uint64, gen uint32) uint64 {
	return uint64(gen)<<16 | uint64(payloadSum(key, gen))
}

func payloadSum(key uint64, gen uint32) uint16 {
	x := key*0x9E3779B97F4A7C15 ^ uint64(gen)*0xBF58476D1CE4E5B9
	return uint16(x >> 48)
}

// payloadValid decodes a returned payload and checks its checksum.
func payloadValid(key, data uint64) bool {
	gen := uint32(data >> 16)
	return uint16(data) == payloadSum(key, gen)
}

// TestReaderAgreesWithLockedLookup is the testing/quick property: for
// arbitrary inserted records, the lock-free Reader and the port-locked
// Lookup return identical answers.
func TestReaderAgreesWithLockedLookup(t *testing.T) {
	s := seqSlice(false)
	rd := s.NewReader()
	seen := make(map[uint32]bool)
	prop := func(key, data uint32) bool {
		if seen[key] {
			return true
		}
		seen[key] = true
		if err := s.Insert(seqRec(uint64(key), uint64(data))); err != nil {
			return true // table full: nothing to compare
		}
		lr, ok := rd.Lookup(seqKey(uint64(key)), nil)
		if !ok || !lr.Found || lr.Record.Data.Uint64() != uint64(data) {
			return false
		}
		locked := s.Lookup(seqKey(uint64(key)))
		return locked.Found &&
			locked.Record.Data.Uint64() == lr.Record.Data.Uint64() &&
			locked.RowsRead == lr.RowsRead &&
			locked.HomeBucket == lr.HomeBucket
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	// Misses agree too.
	for k := uint64(1 << 40); k < 1<<40+32; k++ {
		lr, ok := rd.Lookup(seqKey(k), nil)
		if !ok {
			t.Fatalf("reader escalated on quiescent slice, key %x", k)
		}
		if lr.Found != s.Lookup(seqKey(k)).Found {
			t.Fatalf("reader/locked disagree on key %x", k)
		}
	}
}

// TestReaderTornReadStress is the torn-read/linearizability suite: 32
// reader goroutines hammer lock-free lookups — half of them one key at
// a time, half through LookupBatch — while one writer rewrites
// rows with self-validating payloads. Every returned value must be a
// legally published state — the checksum proves no reader ever
// observed a half-written row — and permanent keys (inserted once,
// never touched again) must hit on every single read.
func TestReaderTornReadStress(t *testing.T) {
	const (
		nReaders   = 32
		nPermanent = 12
		nChurn     = 8
		writerIter = 1000
		minReads   = 10_000
	)
	s := seqSlice(false)
	permKeys := make([]uint64, nPermanent)
	for i := range permKeys {
		permKeys[i] = uint64(0xA000 + i)
		if err := s.Insert(seqRec(permKeys[i], payload(permKeys[i], 0))); err != nil {
			t.Fatalf("permanent insert %d: %v", i, err)
		}
	}
	churnKeys := make([]uint64, nChurn)
	for i := range churnKeys {
		churnKeys[i] = uint64(0xB000 + i)
		if err := s.Insert(seqRec(churnKeys[i], payload(churnKeys[i], 0))); err != nil {
			t.Fatalf("churn insert %d: %v", i, err)
		}
	}

	var done atomic.Bool
	var torn, escalated, reads atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < nReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := s.NewReader()
			// check judges one certified answer.
			check := func(key uint64, permanent bool, lr LookupResult) bool {
				reads.Add(1)
				if permanent && !lr.Found {
					t.Errorf("permanent key %x missing (linearizability violation)", key)
					return false
				}
				if lr.Found && !payloadValid(key, lr.Record.Data.Uint64()) {
					torn.Add(1)
					t.Errorf("key %x returned unpublished value %#x (torn read)", key, lr.Record.Data.Uint64())
					return false
				}
				return true
			}
			// Odd readers run the staged batch pipeline: more than a chunk
			// of keys per call, permanent and churn keys alternating, so
			// home-row snapshots sit in the chunk buffer while the writer
			// republishes the rows they came from.
			var (
				keys [BatchChunk + 8]bitutil.Ternary
				raw  [BatchChunk + 8]uint64
				out  [BatchChunk + 8]LookupResult
				oks  [BatchChunk + 8]bool
			)
			for i := 0; !done.Load(); i++ {
				if g%2 == 1 {
					for j := range keys {
						if raw[j] = permKeys[(g+i+j)%nPermanent]; j%2 == 1 {
							raw[j] = churnKeys[(g+i+j)%nChurn]
						}
						keys[j] = seqKey(raw[j])
					}
					rd.LookupBatch(keys[:], out[:], oks[:])
					for j := range keys {
						if !oks[j] {
							escalated.Add(1)
						} else if !check(raw[j], j%2 == 0, out[j]) {
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
				lr, ok := rd.Lookup(seqKey(key), nil)
				if !ok {
					escalated.Add(1)
					continue // a locked caller would retry; the property needs certified reads only
				}
				if !check(key, permanent, lr) {
					return
				}
				// Yield between lookups so the single writer is never
				// starved for a full preemption quantum per reader on a
				// one-CPU box; the point is interleaving, not spin.
				runtime.Gosched()
			}
		}(g)
	}

	// The one writer: churn keys cycle delete/insert through rising
	// generations, so rows republish constantly under the readers. The
	// yield each iteration interleaves readers and writer even on one
	// CPU, and the churn keeps going until the readers have certified
	// real work (bounded by a generation cap so a broken reader side
	// cannot hang the test).
	deadline := time.Now().Add(10 * time.Second)
	for gen := uint32(1); gen <= writerIter || (reads.Load() < minReads && time.Now().Before(deadline)); gen++ {
		k := churnKeys[int(gen)%nChurn]
		if err := s.Delete(seqKey(k)); err != nil {
			t.Fatalf("delete gen %d: %v", gen, err)
		}
		if err := s.Insert(seqRec(k, payload(k, gen))); err != nil {
			t.Fatalf("reinsert gen %d: %v", gen, err)
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads observed", torn.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("no certified reads completed; harness exercised nothing")
	}
	t.Logf("certified reads=%d escalations=%d", reads.Load(), escalated.Load())
}

// TestReaderEscalatesOnOpenWindow pins the retry-exhaustion path: with
// a write window held open the Reader retries exactly
// maxSnapshotRetries times, reports them via TakeRetries, and refuses
// to certify; once the window commits it certifies again.
func TestReaderEscalatesOnOpenWindow(t *testing.T) {
	s := seqSlice(false)
	key := uint64(0x77)
	if err := s.Insert(seqRec(key, payload(key, 0))); err != nil {
		t.Fatal(err)
	}
	rd := s.NewReader()
	home := s.Index(bitutil.FromUint64(key))
	s.Array().BeginRowMaint(home)
	if _, ok := rd.Lookup(seqKey(key), nil); ok {
		t.Fatal("reader certified a lookup through an open write window")
	}
	if n := rd.TakeRetries(); n != maxSnapshotRetries {
		t.Fatalf("retries = %d, want %d", n, maxSnapshotRetries)
	}
	var out [1]LookupResult
	var oks [1]bool
	if rd.LookupBatch([]bitutil.Ternary{seqKey(key)}, out[:], oks[:]); oks[0] {
		t.Fatal("LookupBatch certified through an open write window")
	}
	s.Array().CommitRowUpdate(home)
	lr, ok := rd.Lookup(seqKey(key), nil)
	if !ok || !lr.Found {
		t.Fatalf("post-commit lookup = %+v, ok=%v", lr, ok)
	}
	if n := rd.TakeRetries(); n != maxSnapshotRetries {
		t.Fatalf("LookupBatch retries not folded in: %d", n)
	}
}

// TestReaderEscalatesOnEccAnomaly pins the never-silently-wrong
// contract: a Reader refuses rows whose check word disagrees (single-
// bit corruption) and rows under quarantine, leaving every ECC
// decision to the locked path — which then corrects or quarantines
// exactly as without the lock-free layer.
func TestReaderEscalatesOnEccAnomaly(t *testing.T) {
	s := seqSlice(true)
	key := uint64(0x42)
	if err := s.Insert(seqRec(key, payload(key, 0))); err != nil {
		t.Fatal(err)
	}
	home := s.Index(bitutil.FromUint64(key))
	rd := s.NewReader()
	if lr, ok := rd.Lookup(seqKey(key), nil); !ok || !lr.Found {
		t.Fatalf("clean lookup = %+v, ok=%v", lr, ok)
	}

	// Single-bit corruption, published whole: the snapshot is version-
	// consistent but fails the check word, so the Reader escalates and
	// the locked path corrects in place.
	row := append([]uint64(nil), s.Array().PeekRow(home)...)
	row[0] ^= 1 << 7
	s.Array().PublishRow(home, row)
	if _, ok := rd.Lookup(seqKey(key), nil); ok {
		t.Fatal("reader certified a corrupted row")
	}
	if lr := s.Lookup(seqKey(key)); !lr.Found {
		t.Fatalf("locked lookup after corruption = %+v", lr)
	}
	if got := s.EccStats().CorrectedBits; got != 1 {
		t.Fatalf("CorrectedBits = %d, want 1", got)
	}
	if lr, ok := rd.Lookup(seqKey(key), nil); !ok || !lr.Found {
		t.Fatalf("post-correction reader lookup = %+v, ok=%v", lr, ok)
	}

	// Double-bit corruption: the locked path quarantines; the Reader
	// sees the quarantine flag and escalates without certifying.
	row = append(row[:0], s.Array().PeekRow(home)...)
	row[0] ^= 1<<3 | 1<<19
	s.Array().PublishRow(home, row)
	if _, ok := rd.Lookup(seqKey(key), nil); ok {
		t.Fatal("reader certified a doubly-corrupted row")
	}
	if lr := s.Lookup(seqKey(key)); !lr.Erred {
		t.Fatalf("locked lookup should report Erred, got %+v", lr)
	}
	if !s.Quarantined(home) {
		t.Fatal("row not quarantined after double corruption")
	}
	if _, ok := rd.Lookup(seqKey(key), nil); ok {
		t.Fatal("reader certified a quarantined row")
	}
	s.Scrub()
	if lr, ok := rd.Lookup(seqKey(key), nil); !ok || !lr.Found {
		t.Fatalf("post-scrub reader lookup = %+v, ok=%v", lr, ok)
	}
}

// TestReaderZeroAlloc holds the lock-free lookup to zero allocations
// per operation once its scratch is warm — the Reader joins the PR 3
// alloc-regression contract (run by `make seqlock-guard`).
func TestReaderZeroAlloc(t *testing.T) {
	s := seqSlice(false)
	for i := 0; i < 8; i++ {
		k := uint64(0x500 + i)
		if err := s.Insert(seqRec(k, payload(k, 0))); err != nil {
			t.Fatal(err)
		}
	}
	rd := s.NewReader()
	rd.Lookup(seqKey(0x500), nil) // warm the match-vector scratch
	if n := testing.AllocsPerRun(200, func() {
		if lr, ok := rd.Lookup(seqKey(0x503), nil); !ok || !lr.Found {
			t.Fatal("lookup failed")
		}
		if lr, ok := rd.Lookup(seqKey(0xF00D), nil); !ok || lr.Found {
			t.Fatal("phantom hit")
		}
	}); n != 0 {
		t.Fatalf("lock-free lookup allocated %.1f times per run, want 0", n)
	}
}

// TestReaderInPlaceFlipStress holds the in-place read to its window: one
// writer flips a row between two published states whose records differ
// in key, data, slot and reach (the second state's reach exposes a
// shadowed copy of one key in the next row), while Readers run Lookup,
// LookupBatch of more than two pipeline distances of keys, and the
// ranked LookupBest. Every certified answer must be one of the two
// states' answers, as the locked path gives them; a row counted on a
// version validated before its last word was read — the reach, or a
// record scored by LookupBest — mixes the states and fails here. Run
// under -race by `make seqlock-guard`.
func TestReaderInPlaceFlipStress(t *testing.T) {
	const (
		nReaders = 4
		minFlips = 4_000
		minReads = 500_000
		minTorn  = 50_000
	)
	s := seqSlice(false)
	h := uint32(5)
	var k [5]uint64 // kA, kB, kC, kY, kZ: all homed at h
	for i := range k {
		k[i] = keyAt(s, h, i)
	}
	kA, kB, kC, kY, kZ := k[0], k[1], k[2], k[3], k[4]
	l := s.Layout()
	state := func(aux uint64, recs ...match.Record) []uint64 {
		row := make([]uint64, s.Array().RowWords())
		for i, r := range recs {
			if err := l.WriteSlot(row, i, r); err != nil {
				t.Fatal(err)
			}
		}
		l.WriteAux(row, aux)
		return row
	}
	// Both states fill slots 0-2, so the mark stays 3 across flips.
	states := [2][]uint64{
		state(0, seqRec(kC, 100), seqRec(kA, 0xA), seqRec(kZ, 0x5)),
		state(1, seqRec(kB, 0xB), seqRec(kC, 200), seqRec(kY, 20)),
	}
	publish := func(idx uint32, row []uint64) {
		s.updateRow(idx, true, func(w []uint64) error { copy(w, row); return nil })
	}
	publish(h+1, state(0, seqRec(kY, 9))) // reached only by state 1
	publish(h, states[0])
	s.rebuildMarks() // a publish moves a mark one slot up at most
	byData := func(r match.Record) int { return int(r.Data.Uint64()) }
	var want [2][len(k)][2]LookupResult // [state][key][Lookup, LookupBest]
	for st := range states {
		publish(h, states[st])
		for i, key := range k {
			want[st][i] = [2]LookupResult{s.Lookup(seqKey(key)), s.LookupBest(seqKey(key), byData)}
		}
	}
	if want[0][3][0].Found || !want[1][3][0].Found || want[0][0][0] == want[1][0][0] {
		t.Fatalf("states do not separate: %+v", want)
	}

	var done atomic.Bool
	var reads, retries atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < nReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := s.NewReader()
			check := func(kind, i int, got LookupResult) bool {
				reads.Add(1)
				if got != want[0][i][kind] && got != want[1][i][kind] {
					t.Errorf("reader %d, kind %d, key %x: certified %+v, which neither state gives (%+v / %+v)",
						g, kind, k[i], got, want[0][i][kind], want[1][i][kind])
					return false
				}
				return true
			}
			var (
				keys [2*BatchChunk + 3]bitutil.Ternary
				out  [len(keys)]LookupResult
				oks  [len(keys)]bool
			)
			for j := range keys {
				keys[j] = seqKey(k[j%len(k)])
			}
			for n := 0; !done.Load(); n++ {
				i := (g + n) % len(k)
				if got, ok := rd.Lookup(seqKey(k[i]), nil); ok && !check(0, i, got) {
					return
				}
				if got, ok := rd.LookupBest(seqKey(k[i]), byData, nil); ok && !check(1, i, got) {
					return
				}
				if n%8 == 0 {
					rd.LookupBatch(keys[:], out[:], oks[:])
					for j := range keys {
						if oks[j] && !check(0, j%len(k), out[j]) {
							return
						}
					}
				}
				retries.Add(uint64(rd.TakeRetries()))
				runtime.Gosched() // interleave with the writer even on one CPU
			}
		}(g)
	}
	deadline := time.Now().Add(20 * time.Second)
	for flip := 0; !t.Failed() && (flip < minFlips || (reads.Load() < minReads || retries.Load() < minTorn) && time.Now().Before(deadline)); flip++ {
		publish(h, states[flip%2])
		if flip%16 == 0 {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no certified reads completed; harness exercised nothing")
	}
	if retries.Load() == 0 {
		t.Fatal("no Reader ever met a torn row; the flips did not interleave with the reads")
	}
	t.Logf("certified reads=%d torn rows re-read=%d", reads.Load(), retries.Load())
}
