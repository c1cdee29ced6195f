package caram

import (
	"flag"
	"math/rand"
	"slices"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/match"
)

var freezeSeed = flag.Int64("freeze.seed", 0, "TestFreezeModelCheck's seed (0: drawn from the clock)")

// logicalImage is what a freeze opened now must stream, copied while the
// writer is excluded: every row's logical contents — an ECC slice's
// shadow, any other slice's storage.
func logicalImage(s *Slice) []uint64 {
	if s.ecc != nil {
		return slices.Clone(s.ecc.shadow)
	}
	return slices.Clone(s.array.PeekWords())
}

// TestFreezeModelCheck is the freeze's point-in-time property: whatever
// the writer does while a freeze is open — to rows the walker has
// streamed, to the row it streams next, to rows it has not reached —
// the freeze streams, word for word, the logical image copied at the
// instant it opened. The walker streams one row per run and every
// callback is where the writes land, so the interleaving is the seed's:
// inserts (spilling ones raise a reach), deletes, updates, a record
// deleted and put back across the cursor, scrubs, lookups (a fault
// strike is a write to storage), bulk rewrites, and on ECC slices rows
// quarantined mid-walk whose writes go to the shadow — and now and then
// a freeze released before its walk, as a failed snapshot's is. Every kind of
// slice the write-path suite knows runs it: the four compiled comparator
// variants, with ECC and live fault injectors among them.
func TestFreezeModelCheck(t *testing.T) {
	seed := *freezeSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (rerun with -freeze.seed=%d)", seed, seed)
	defer func(words int) { freezeRun = words }(freezeRun)
	freezeRun = 1 // a run is one row: the callback runs between every two rows
	for _, tc := range writePathCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := tc.build()
			rw := s.array.RowWords()
			for i := 0; i < s.rows*s.layout.Slots()/2; i++ {
				s.Insert(match.Record{Key: tc.key(rng), Data: tc.data(rng)}) //nolint:errcheck // a full chain or a duplicate just skips the record
			}
			var landed [3]int // logical row changes behind, at and ahead of the cursor
			var spills, moved, shadowWrites int
			for round := 0; round < 200; round++ {
				f := s.Freeze()
				if round%7 == 3 {
					// A snapshot that fails before its rows are streamed:
					// what the writes kept must not leak into the next
					// freeze.
					for n := rng.Intn(6); n >= 0; n-- {
						freezeWrite(s, tc, rng, 0, &moved)
					}
					f.Release()
					continue
				}
				want := logicalImage(s)
				var got []uint64
				f.Each(func(run []uint64) {
					got = append(got, run...)
					cursor := len(got) / rw // the next row the walker streams
					for n := rng.Intn(4); n > 0; n-- {
						before := logicalImage(s)
						disp := s.disp
						freezeWrite(s, tc, rng, cursor, &moved)
						if s.disp > disp {
							spills++
						}
						after := logicalImage(s)
						for r := 0; r < s.rows; r++ {
							if slices.Equal(before[r*rw:(r+1)*rw], after[r*rw:(r+1)*rw]) {
								continue
							}
							landed[min(max(r-cursor+1, 0), 2)]++
							if s.Quarantined(uint32(r)) { // only a shadow branch changes a quarantined row
								shadowWrites++
							}
						}
					}
				})
				if s.frz.Load() != nil {
					t.Fatalf("round %d: the freeze is still open after Each", round)
				}
				if len(got) != len(want) {
					t.Fatalf("round %d: streamed %d words, want %d", round, len(got), len(want))
				}
				for r := 0; r < s.rows; r++ {
					if g, w := got[r*rw:(r+1)*rw], want[r*rw:(r+1)*rw]; !slices.Equal(g, w) {
						t.Fatalf("round %d: row %d streamed %x, at the freeze it held %x", round, r, g, w)
					}
				}
			}
			t.Logf("row writes behind/at/ahead of the cursor %v, %d spills, %d records deleted and put back, %d shadow writes",
				landed, spills, moved, shadowWrites)
			if landed[0] == 0 || landed[1] == 0 || landed[2] == 0 || moved == 0 ||
				(spills == 0 && tc.cfg.Slots() < 8 && tc.cfg.ProbeLimit != NoProbing) || (tc.cfg.ECC && shadowWrites == 0) {
				t.Fatal("the schedule exercised too little")
			}
		})
	}
}

// data draws a data field the case's layout holds.
func (tc writePathCase) data(rng *rand.Rand) bitutil.Vec128 {
	return bitutil.FromUint64(rng.Uint64()).Trunc(tc.cfg.DataBits)
}

// freezeWrite applies one random write as the writer, between two runs
// of an open freeze's walk. What a write refuses (a duplicate, a full
// chain, a search mask on a binary layout) it refuses: the freeze must
// hold either way.
func freezeWrite(s *Slice, tc writePathCase, rng *rand.Rand, cursor int, moved *int) {
	key := tc.key(rng)
	switch r := rng.Intn(11); {
	case r < 4:
		s.Insert(match.Record{Key: key, Data: tc.data(rng)}) //nolint:errcheck
	case r < 6:
		s.Delete(key) //nolint:errcheck
	case r == 6:
		// A stored record the walker has not reached, deleted and put
		// back: its row changes twice, and the second copy may land on
		// either side of the cursor.
		var found *match.Record
		s.Records(func(b uint32, _ int, rec match.Record) bool {
			if int(b) >= cursor {
				found = &rec
			}
			return found == nil
		})
		if found != nil && s.Delete(found.Key) == nil && s.Insert(*found) == nil {
			*moved++
		}
	case r == 7:
		s.Scrub()
	case r == 8:
		s.Lookup(key)
	case r == 9 && s.ecc != nil:
		// Two flipped bits in storage: the next checked fetch quarantines
		// the row, and writes to it divert to the shadow.
		idx := uint32(rng.Intn(s.rows))
		s.array.PeekRow(idx)[0] ^= 1<<1 | 1<<2
		s.fetchChecked(idx, nil)
	case r == 10:
		s.UpdateWhere(bitutil.NewTernary(key.Value, bitutil.FromUint64(3)), func(rec match.Record) bitutil.Vec128 {
			return rec.Data.Xor(bitutil.FromUint64(1)).Trunc(tc.cfg.DataBits)
		})
	}
}
