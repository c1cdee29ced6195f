package caram

import (
	"testing"

	"caram/internal/bitutil"
	"caram/internal/hash"
)

// LookupBatch's proof obligations: it is N Lookups — same results, same
// certification flags, same slice and array statistics — whatever the
// batch size relative to the pipeline chunk, and an ECC anomaly on one
// key's row costs that key its certification and no other.

// batchTwins builds two identically loaded slices (64 rows x 4 slots at
// load 0.8, so some records are displaced) and the key stream to look
// up: every stored key interleaved with as many absent ones.
func batchTwins(t *testing.T, ecc bool) (a, b *Slice, keys []bitutil.Ternary) {
	t.Helper()
	cfg := Config{
		IndexBits: 6,
		RowBits:   4*(1+32+32) + 8,
		KeyBits:   32,
		DataBits:  32,
		Index:     hash.NewMultShift(6),
		ECC:       ecc,
	}
	a, b = MustNew(cfg), MustNew(cfg)
	for i := uint64(0); i < 205; i++ {
		k := i*0x9E3779B1 + 7
		for _, s := range []*Slice{a, b} {
			if err := s.Insert(seqRec(k&0xffffffff, i)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
		keys = append(keys, seqKey(k&0xffffffff), seqKey((k^0x55555555)&0xffffffff))
	}
	return a, b, keys
}

func TestReaderLookupBatchEqualsLookups(t *testing.T) {
	a, b, keys := batchTwins(t, false)
	ra, rb := a.NewReader(), b.NewReader()
	out := make([]LookupResult, 300)
	ok := make([]bool, len(out))
	missed, longest := 0, 0
	var chain []bitutil.Ternary // every displaced key met, for a batch of its own
	run := func(batch []bitutil.Ternary) {
		t.Helper()
		n := len(batch)
		for i := range out[:n] { // stale contents must not survive
			out[i], ok[i] = LookupResult{Found: true, RowsRead: 99, Erred: true}, i%2 == 0
		}
		ra.LookupBatch(batch, out[:n], ok[:n])
		for i, k := range batch {
			want, wantOK := rb.Lookup(k, nil)
			if out[i] != want || ok[i] != wantOK || !wantOK {
				t.Fatalf("batch of %d, key %d: LookupBatch = %+v, %v; Lookup = %+v, %v", n, i, out[i], ok[i], want, wantOK)
			}
			if want.RowsRead > 1 {
				chain = append(chain, k)
			}
			longest = max(longest, want.RowsRead)
			if !want.Found {
				missed++
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("after a batch of %d: slice stats %+v, want %+v", n, a.Stats(), b.Stats())
		}
		if a.Array().Stats() != b.Array().Stats() {
			t.Fatalf("after a batch of %d: array stats %+v, want %+v", n, a.Array().Stats(), b.Array().Stats())
		}
	}
	at := 0
	for _, n := range []int{0, 1, BatchChunk - 1, BatchChunk, BatchChunk + 1, 64, 65, 150, 300} {
		batch := make([]bitutil.Ternary, n) // the stream, wrapped round
		for i := range batch {
			batch[i] = keys[(at+i)%len(keys)]
		}
		at += n
		run(batch)
	}
	if len(chain) == 0 || missed == 0 || longest < 3 {
		t.Fatalf("key stream exercised %d displaced keys (longest chain %d rows) and %d misses; need both, and a chain of 3", len(chain), longest, missed)
	}
	// Displaced keys back to back: every chain runs past its prefetched
	// home row into rows the match stage hints itself.
	run(chain[:min(len(chain), len(out))])
}

// TestReaderLookupBatchEscalatesPerKey: with ECC on, a home row whose
// check word mismatches, and then one under quarantine, fail exactly
// the keys whose chains touch that row; every other key of the batch is
// certified lock-free, and the statistics count only what was certified
// — again exactly as N single Lookups.
func TestReaderLookupBatchEscalatesPerKey(t *testing.T) {
	a, b, keys := batchTwins(t, true)
	keys = keys[:64]
	victim := a.Index(keys[0].Value)
	ra, rb := a.NewReader(), b.NewReader()
	out := make([]LookupResult, len(keys))
	ok := make([]bool, len(keys))
	check := func(stage string) {
		t.Helper()
		ra.LookupBatch(keys, out, ok)
		refused := 0
		for i, k := range keys {
			want, wantOK := rb.Lookup(k, nil)
			if out[i] != want || ok[i] != wantOK {
				t.Fatalf("%s, key %d: LookupBatch = %+v, %v; Lookup = %+v, %v", stage, i, out[i], ok[i], want, wantOK)
			}
			if !ok[i] {
				refused++
			} else if a.Index(k.Value) == victim {
				t.Fatalf("%s: key %d certified through its anomalous home row %d", stage, i, victim)
			}
		}
		if ok[0] || refused == len(keys) {
			t.Fatalf("%s: victim certified=%v, %d of %d keys refused", stage, ok[0], refused, len(keys))
		}
		if a.Stats() != b.Stats() || a.Array().Stats() != b.Array().Stats() {
			t.Fatalf("%s: stats diverged: %+v / %+v vs %+v / %+v", stage, a.Stats(), a.Array().Stats(), b.Stats(), b.Array().Stats())
		}
	}
	flip := func(s *Slice, bits uint64) {
		row := append([]uint64(nil), s.Array().PeekRow(victim)...)
		row[0] ^= bits
		s.Array().PublishRow(victim, row)
	}
	for _, s := range []*Slice{a, b} {
		flip(s, 1<<7)
	}
	check("check-word mismatch")
	for _, s := range []*Slice{a, b} {
		if lr := s.Lookup(keys[0]); !lr.Found { // the locked path corrects the single flip
			t.Fatalf("locked lookup after a single flip: %+v", lr)
		}
		flip(s, 1<<3|1<<19)
		if lr := s.Lookup(keys[0]); !lr.Erred || !s.Quarantined(victim) {
			t.Fatalf("locked lookup did not quarantine row %d: %+v", victim, lr)
		}
	}
	check("quarantined")
}

// TestReaderLookupBatchZeroAlloc: the batch pipeline runs on
// Reader-owned buffers.
func TestReaderLookupBatchZeroAlloc(t *testing.T) {
	a, _, keys := batchTwins(t, false)
	keys = keys[:64]
	rd := a.NewReader()
	out := make([]LookupResult, len(keys))
	ok := make([]bool, len(keys))
	rd.LookupBatch(keys, out, ok) // warm the match-vector scratch
	if n := testing.AllocsPerRun(100, func() { rd.LookupBatch(keys, out, ok) }); n != 0 {
		t.Fatalf("LookupBatch allocated %.1f times per run, want 0", n)
	}
}
