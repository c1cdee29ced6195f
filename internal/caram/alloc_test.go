package caram

import (
	"testing"

	"caram/internal/bitutil"
	"caram/internal/match"
)

// TestLookupZeroAlloc guards the slice hot path: a Lookup — hash,
// row reads along the probe chain, word-parallel match — must not
// allocate, hit or miss. Run by `make alloc-guard` / `make ci`.
func TestLookupZeroAlloc(t *testing.T) {
	s := MustNew(smallConfig())
	for k := uint64(0); k < 40; k++ {
		if err := s.Insert(rec(k, k^0xaa)); err != nil && err != ErrExists {
			t.Fatal(err)
		}
	}
	hit := bitutil.Exact(bitutil.FromUint64(7))
	miss := bitutil.Exact(bitutil.FromUint64(0x9999))
	if n := testing.AllocsPerRun(200, func() {
		if !s.Lookup(hit).Found {
			t.Fatal("expected hit")
		}
		if s.Lookup(miss).Found {
			t.Fatal("expected miss")
		}
	}); n != 0 {
		t.Fatalf("Lookup allocated %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		s.LookupBest(hit, func(r match.Record) int { return int(r.Data.Uint64()) })
	}); n != 0 {
		t.Fatalf("LookupBest allocated %.1f times per run, want 0", n)
	}
}

// TestTypedLookupBestZeroAlloc is the same guard for the typed read
// path: a ranked, occupancy-bounded LookupBest over ternary rows, on
// the port-locked path and on a Reader.
func TestTypedLookupBestZeroAlloc(t *testing.T) {
	s := occSlice(false)
	for i := 0; i < 4; i++ {
		if err := s.Insert(seqRec(keyAt(s, 2, i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rd := s.NewReader()
	hit, miss := seqKey(keyAt(s, 2, 3)), seqKey(keyAt(s, 2, 9))
	rd.LookupBest(hit, occScore, nil) // warm the match-vector scratch
	if n := testing.AllocsPerRun(200, func() {
		if lr, ok := rd.LookupBest(hit, occScore, nil); !ok || !lr.Found {
			t.Fatal("expected a certified hit")
		}
		if lr, ok := rd.LookupBest(miss, occScore, nil); !ok || lr.Found {
			t.Fatal("expected a certified miss")
		}
		if !s.LookupBest(hit, occScore).Found {
			t.Fatal("expected a locked hit")
		}
	}); n != 0 {
		t.Fatalf("typed LookupBest allocated %.1f times per run, want 0", n)
	}
}
