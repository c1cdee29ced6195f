package caram

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/hash"
	"caram/internal/match"
)

// The occupancy mark's proof obligations: it is exactly 1 + the row's
// highest valid slot after every kind of write (Verify checks that, so
// the model test below only has to keep asking); a lookup bounded by it
// is the whole-row lookup in results and in every statistic; a Reader
// buffer that still holds an older, fuller row cannot leak its slots;
// the mark and the words of a snapshot belong to one publication even
// while a writer moves the mark; and ECC or fault-injected slices opt
// out and fetch whole rows.

// occSlice is 16 rows x 6 ternary slots with 24-bit keys, duplicates
// allowed (the LPM engines' shape in miniature).
func occSlice(ecc bool) *Slice {
	return MustNew(Config{
		IndexBits:       4,
		RowBits:         6*(1+24+24+32) + 8,
		KeyBits:         24,
		DataBits:        32,
		Ternary:         true,
		AllowDuplicates: true,
		Index:           hash.NewMultShift(4),
		ECC:             ecc,
	})
}

func occScore(r match.Record) int { return r.Key.Specificity(24) }

// keyAt returns the n-th exact key (n = 0, 1, ...) whose home is row.
func keyAt(s *Slice, row uint32, n int) uint64 {
	for k := uint64(1); ; k++ {
		if s.Index(bitutil.FromUint64(k)) == row {
			if n == 0 {
				return k
			}
			n--
		}
	}
}

// TestOccupancyMarkModel drives every write path at random and asks
// Verify — which now fails on any mark that is not exactly 1 + the
// row's highest valid slot — after each step, next to a model of what
// is stored.
func TestOccupancyMarkModel(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		rng := rand.New(rand.NewSource(15))
		s := occSlice(ecc)
		rd := s.NewReader()
		model := map[uint64]uint64{} // exact key -> data
		check := func(op string) {
			t.Helper()
			if v := s.Verify(); v != "" {
				t.Fatalf("ecc=%v after %s: %s", ecc, op, v)
			}
			if s.Count() != len(model) {
				t.Fatalf("ecc=%v after %s: count %d, model holds %d", ecc, op, s.Count(), len(model))
			}
			for k, d := range model {
				lr := s.Lookup(seqKey(k))
				if lr.Erred {
					continue // its chain crosses a quarantined row
				}
				if !lr.Found || lr.Record.Data.Uint64() != d {
					t.Fatalf("ecc=%v after %s: key %x = %+v, model says %x", ecc, op, k, lr, d)
				}
				if br, ok := rd.LookupBest(seqKey(k), occScore, nil); ok && (!br.Found || br.Record.Data.Uint64() != d) {
					t.Fatalf("ecc=%v after %s: Reader key %x = %+v, model says %x", ecc, op, k, br, d)
				}
			}
		}
		anyKey := func() (uint64, bool) {
			for k := range model {
				return k, true
			}
			return 0, false
		}
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(20); {
			case op < 7:
				k := uint64(rng.Intn(1 << 10))
				if _, dup := model[k]; dup {
					continue
				}
				rec := seqRec(k, uint64(step))
				var err error
				if op%2 == 0 {
					err = s.Insert(rec)
				} else {
					_, err = s.Place(s.Index(rec.Key.Value), rec)
				}
				if err == nil {
					model[k] = uint64(step)
				}
				check("Insert")
			case op < 12:
				k, ok := anyKey()
				if !ok {
					continue
				}
				var err error
				if op%2 == 0 {
					err = s.Delete(seqKey(k))
				} else {
					err = s.DeleteAt(s.Index(bitutil.FromUint64(k)), seqKey(k))
				}
				if err != nil {
					t.Fatalf("ecc=%v: delete %x: %v", ecc, k, err)
				}
				delete(model, k)
				check("Delete")
			case op == 12:
				// Every key with bit 0 set gets new data.
				sel := bitutil.Ternary{Value: bitutil.FromUint64(1), Mask: bitutil.FromUint64(^uint64(1))}
				s.UpdateWhere(sel, func(match.Record) bitutil.Vec128 { return bitutil.FromUint64(uint64(step)) })
				for k := range model {
					if k&1 == 1 {
						model[k] = uint64(step)
					}
				}
				check("UpdateWhere")
			case op == 15:
				img := frozenImage(s)
				s.Clear()
				if v := s.Verify(); v != "" {
					t.Fatalf("ecc=%v after Clear: %s", ecc, v)
				}
				if err := loadImage(s, img); err != nil {
					t.Fatal(err)
				}
				check("LoadImageFrom")
			case op == 16 && ecc:
				// A double-bit strike on a random row, noticed by the next
				// lookup through it: deletes divert to the shadow until the
				// scrub republishes the row, mark included.
				victim := uint32(rng.Intn(16))
				row := append([]uint64(nil), s.Array().PeekRow(victim)...)
				row[1] ^= 1<<5 | 1<<40
				s.Array().PublishRow(victim, row)
				s.Lookup(seqKey(keyAt(s, victim, 0)))
				if !s.Quarantined(victim) {
					t.Fatalf("row %d not quarantined after a double strike", victim)
				}
				check("quarantine")
			case op == 17:
				s.Scrub()
				check("Scrub")
				if s.QuarantinedRows() != 0 {
					t.Fatal("scrub left rows quarantined")
				}
			}
		}
	}
}

// boundedTwins loads two identical ternary slices so that rows are
// sparse, full, and holed below the mark, and returns the search keys:
// stored ones, deleted ones and never-stored ones.
func boundedTwins(t *testing.T) (a, b *Slice, keys []bitutil.Ternary) {
	t.Helper()
	a, b = occSlice(false), occSlice(false)
	rng := rand.New(rand.NewSource(4))
	var stored []uint64
	for i := 0; i < 70; i++ {
		k := uint64(rng.Intn(1 << 24))
		rec := match.Record{Key: bitutil.NewTernary(bitutil.FromUint64(k), bitutil.FromUint64(uint64(rng.Intn(4)))), Data: bitutil.FromUint64(uint64(i))}
		errA, errB := a.Insert(rec), b.Insert(rec)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("twins diverged on insert %d: %v vs %v", i, errA, errB)
		}
		if errA == nil {
			stored = append(stored, rec.Key.Value.Uint64()|rec.Key.Mask.Uint64()<<32)
		}
		keys = append(keys, seqKey(k), seqKey(k^1), seqKey(uint64(rng.Intn(1<<24))))
	}
	for i, sk := range stored {
		if i%3 != 0 {
			continue
		}
		key := bitutil.Ternary{Value: bitutil.FromUint64(sk & 0xffffffff), Mask: bitutil.FromUint64(sk >> 32)}
		if errA, errB := a.Delete(key), b.Delete(key); errA != nil || errB != nil {
			t.Fatalf("twins diverged on delete %d: %v vs %v", i, errA, errB)
		}
	}
	sparse, holed := 0, 0
	for r := 0; r < a.cfg.Rows(); r++ {
		m := a.bound(uint32(r))
		if m < a.layout.Slots() {
			sparse++
		}
		if a.layout.OccupiedSlots(a.array.PeekRow(uint32(r))) < m {
			holed++
		}
	}
	if sparse == 0 || holed == 0 {
		t.Fatalf("twins have %d sparse and %d holed rows; need both", sparse, holed)
	}
	return a, b, keys
}

// TestReaderBoundedEqualsLocked: slice a is read through the bounded
// Reader, its twin b through the port-locked path. Results, slice
// statistics and array statistics must stay equal — a row fetched up to
// its mark is still one row access, and the slots above the mark were
// never valid, so SlotsTested cannot differ either.
func TestReaderBoundedEqualsLocked(t *testing.T) {
	a, b, keys := boundedTwins(t)
	rd := a.NewReader()
	same := func(what string) {
		t.Helper()
		if a.Stats() != b.Stats() {
			t.Fatalf("after %s: slice stats %+v, locked twin %+v", what, a.Stats(), b.Stats())
		}
		if a.Array().Stats() != b.Array().Stats() {
			t.Fatalf("after %s: array stats %+v, locked twin %+v", what, a.Array().Stats(), b.Array().Stats())
		}
	}
	hits := 0
	for _, k := range keys {
		got, ok := rd.Lookup(k, nil)
		if want := b.Lookup(k); !ok || got != want {
			t.Fatalf("Lookup(%s) = %+v, %v; locked %+v", k.String(24), got, ok, want)
		}
		got, ok = rd.LookupBest(k, occScore, nil)
		if want := b.LookupBest(k, occScore); !ok || got != want {
			t.Fatalf("LookupBest(%s) = %+v, %v; locked %+v", k.String(24), got, ok, want)
		}
		if got.Found {
			hits++
		}
	}
	same("single lookups")
	if hits == 0 || hits == len(keys) {
		t.Fatalf("%d of %d keys hit; need hits and misses", hits, len(keys))
	}
	out := make([]LookupResult, len(keys))
	oks := make([]bool, len(keys))
	rd.LookupBatch(keys, out, oks)
	for i, k := range keys {
		if want := b.Lookup(k); !oks[i] || out[i] != want {
			t.Fatalf("LookupBatch key %d = %+v, %v; locked %+v", i, out[i], oks[i], want)
		}
	}
	same("LookupBatch")
}

// TestOccupancyFreezeEqualsWholeRows: a freeze opened after each step
// of a random mix of inserts (spilling ones too), deletes and updates
// streams exactly the stored array — and Verify refuses a set bit in the
// words above a row's mark, where nothing else would notice.
func TestOccupancyFreezeEqualsWholeRows(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		s := occSlice(ecc)
		rng := rand.New(rand.NewSource(26))
		var live []uint64
		for step := 0; step < 600; step++ {
			switch k := uint64(rng.Intn(200) + 1); {
			case rng.Intn(3) > 0:
				if s.Insert(seqRec(k, k)) == nil {
					live = append(live, k)
				}
			case len(live) > 0:
				i := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					s.UpdateWhere(seqKey(live[i]), func(match.Record) bitutil.Vec128 { return bitutil.FromUint64(uint64(step)) })
				} else if s.Delete(seqKey(live[i])) == nil {
					live = append(live[:i], live[i+1:]...)
				}
			}
			f := s.Freeze()
			var got []uint64
			f.Each(func(rows []uint64) { got = append(got, rows...) })
			want := s.array.PeekWords()
			if f.Len() != len(want) || !slices.Equal(got, want) {
				t.Fatalf("ecc=%v step %d: freeze of %d words streams a different image than the %d whole-row words", ecc, step, f.Len(), len(want))
			}
		}
		if ecc {
			continue
		}
		s.Clear()
		if err := s.Insert(seqRec(1, 1)); err != nil {
			t.Fatal(err)
		}
		b := s.Index(bitutil.FromUint64(1))
		s.array.PeekRow(b)[s.markWords(1)] |= 1 << 63
		if msg := s.Verify(); !strings.Contains(msg, "above mark") {
			t.Fatalf("a set bit above row %d's mark span: Verify = %q", b, msg)
		}
	}
}

// TestReaderStaleBufferAboveMark: a Reader whose buffer still holds a
// full row must not see that row's upper slots once the row has shrunk
// — the words above the mark are not re-fetched, so nothing may read
// them. (The prototype's first bug: a key survived its Delete.)
func TestReaderStaleBufferAboveMark(t *testing.T) {
	s := occSlice(false)
	rd := s.NewReader()
	const row = 5
	n := s.layout.Slots()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyAt(s, row, i)
		if err := s.Insert(seqRec(keys[i], uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	last := seqKey(keys[n-1])
	if lr, ok := rd.LookupBest(last, occScore, nil); !ok || !lr.Found {
		t.Fatalf("full row: LookupBest = %+v, %v", lr, ok)
	}
	// Shrink the row from the top; after each delete every removed key
	// must be gone for every Reader entry point, every kept key present.
	for top := n - 1; top >= 0; top-- {
		if err := s.Delete(seqKey(keys[top])); err != nil {
			t.Fatal(err)
		}
		if got := s.bound(row); got != top {
			t.Fatalf("mark = %d after deleting down to %d slots", got, top)
		}
		for i, k := range keys {
			want := i < top
			if lr, ok := rd.Lookup(seqKey(k), nil); !ok || lr.Found != want {
				t.Fatalf("top=%d key %d: Lookup found=%v ok=%v, want %v", top, i, lr.Found, ok, want)
			}
			if lr, ok := rd.LookupBest(seqKey(k), occScore, nil); !ok || lr.Found != want {
				t.Fatalf("top=%d key %d: LookupBest found=%v ok=%v, want %v", top, i, lr.Found, ok, want)
			}
			var out [1]LookupResult
			var oks [1]bool
			rd.LookupBatch([]bitutil.Ternary{seqKey(k)}, out[:], oks[:])
			if !oks[0] || out[0].Found != want {
				t.Fatalf("top=%d key %d: LookupBatch found=%v ok=%v, want %v", top, i, out[0].Found, oks[0], want)
			}
		}
	}
}

// TestReaderMarkChurnStress is the torn-read suite aimed at the mark:
// one writer grows a row to full and shrinks it back to a single
// permanent record, over and over, while Readers run LookupBest on that
// row. A mark read outside the version window of the words it bounds
// shows up as a permanent key missing (stale low mark over a newer row)
// or as an unpublished payload (stale high mark over stale words). Run
// under -race by `make seqlock-guard` and `make typed-guard`.
func TestReaderMarkChurnStress(t *testing.T) {
	const (
		nReaders = 8
		row      = 9
		minReads = 5_000
	)
	s := occSlice(false)
	n := s.layout.Slots()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyAt(s, row, i)
	}
	perm := keys[0]
	if err := s.Insert(seqRec(perm, payload(perm, 0))); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var reads, escalated atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < nReaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rd := s.NewReader()
			for i := 0; !done.Load(); i++ {
				k := keys[(g+i)%n]
				lr, ok := rd.LookupBest(seqKey(k), occScore, nil)
				if !ok {
					escalated.Add(1)
					continue
				}
				reads.Add(1)
				if k == perm && !lr.Found {
					t.Errorf("permanent key %x missing under mark churn", k)
					return
				}
				if lr.Found && (lr.Record.Key.Value.Uint64() != k || !payloadValid(k, lr.Record.Data.Uint64())) {
					t.Errorf("key %x returned %+v (torn or stale)", k, lr.Record)
					return
				}
				runtime.Gosched()
			}
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for gen := uint32(1); gen <= 300 || (reads.Load() < minReads && time.Now().Before(deadline)); gen++ {
		for _, k := range keys[1:] {
			if err := s.Insert(seqRec(k, payload(k, gen))); err != nil {
				t.Fatalf("gen %d grow: %v", gen, err)
			}
			runtime.Gosched()
		}
		for i := n - 1; i >= 1; i-- {
			if err := s.Delete(seqKey(keys[i])); err != nil {
				t.Fatalf("gen %d shrink: %v", gen, err)
			}
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no certified reads completed; harness exercised nothing")
	}
	if v := s.Verify(); v != "" {
		t.Fatal(v)
	}
	t.Logf("certified reads=%d escalations=%d", reads.Load(), escalated.Load())
}

type idleInjector struct{}

func (idleInjector) OnRowFetch(uint32, []uint64) (bool, int) { return true, 0 }

// TestReaderWholeRowsUnderECC: with ECC on — or a fault injector
// installed — a Reader's match bound is the whole row whatever the mark
// says, so a strike above the mark is still caught by the check word
// and escalated to the locked path, which corrects it.
func TestReaderWholeRowsUnderECC(t *testing.T) {
	s := occSlice(true)
	k := keyAt(s, 3, 0)
	if err := s.Insert(seqRec(k, 1)); err != nil {
		t.Fatal(err)
	}
	rd := s.NewReader()
	if got := int(s.mark[3].Load()); got != 1 {
		t.Fatalf("mark = %d, want 1", got)
	}
	if n := s.bound(3); n != s.layout.Slots() {
		t.Fatalf("ECC read bound = %d; want the whole row (%d)", n, s.layout.Slots())
	}
	// Flip one bit in the last slot — far above the mark.
	row := append([]uint64(nil), s.Array().PeekRow(3)...)
	top := s.layout.Slots()*s.layout.SlotBits() - 3
	row[top/64] ^= 1 << uint(top%64)
	s.Array().PublishRow(3, row)
	if _, ok := rd.Lookup(seqKey(k), nil); ok {
		t.Fatal("Reader certified a row whose check word mismatches above the mark")
	}
	if lr := s.Lookup(seqKey(k)); !lr.Found || s.EccStats().CorrectedBits != 1 {
		t.Fatalf("locked path: %+v, corrected %d bits", lr, s.EccStats().CorrectedBits)
	}
	if lr, ok := rd.Lookup(seqKey(k), nil); !ok || !lr.Found {
		t.Fatalf("post-correction Reader lookup = %+v, %v", lr, ok)
	}

	f := occSlice(false)
	if err := f.Insert(seqRec(k, 1)); err != nil {
		t.Fatal(err)
	}
	home := f.Index(bitutil.FromUint64(k))
	if n := f.bound(home); n != 1 {
		t.Fatalf("plain read bound = %d; want the mark (1)", n)
	}
	f.Array().InstallFaults(idleInjector{})
	if n := f.bound(home); n != f.layout.Slots() {
		t.Fatalf("read bound with an injector = %d; want the whole row", n)
	}
	if lr, ok := f.NewReader().Lookup(seqKey(k), nil); !ok || !lr.Found {
		t.Fatalf("Reader lookup with an injector = %+v, %v", lr, ok)
	}
}
