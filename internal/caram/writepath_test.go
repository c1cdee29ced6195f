package caram

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/fault"
	"caram/internal/hash"
	"caram/internal/match"
)

// The write path's proof obligations at this layer. INSERT, DELETE
// and Contains now find their slot with the slot comparator, take
// the free slot from the same pass, and publish only the words they
// changed; the path they replaced — a ReadSlot loop per probed row, a
// SlotValid walk for the free slot — survives below as the oracle, the
// way SearchSerial does for the matcher. Held to it: every locate
// (found, bucket, slot) on every kind of slice, and, for random
// schedules of every mutator, the two slices' storage word for word and
// their bookkeeping, charges and error-coding state count for count —
// placement did not move, so row images, snapshots and
// caram.rows_per_lookup did not either.

// oracle drives a slice through the write path as it was.
type oracle struct{ s *Slice }

// locate is the ReadSlot loop: every slot below the bound decoded and
// compared, row by row down the home bucket's reach.
func (o oracle) locate(home uint32, key bitutil.Ternary) (bucket uint32, slot int, found bool) {
	s := o.s
	rows := s.cfg.Rows()
	reach := s.Reach(home)
	for d := 0; d <= reach && d < rows; d++ {
		idx := uint32((int(home) + d) % rows)
		row := s.logicalRow(idx, s.array.PeekRow(idx))
		for i, n := 0, s.bound(idx); i < n; i++ {
			if rec, ok := s.layout.ReadSlot(row, i); ok && rec.Key.Equal(key) {
				return idx, i, true
			}
		}
	}
	return 0, 0, false
}

func (o oracle) place(home uint32, rec match.Record) (int, error) {
	s := o.s
	if int(home) >= s.cfg.Rows() {
		return 0, fmt.Errorf("caram: home bucket %d out of range", home)
	}
	if !s.cfg.AllowDuplicates {
		if _, _, found := o.locate(home, rec.Key); found {
			return 0, ErrExists
		}
	}
	rows := s.cfg.Rows()
	limit := s.cfg.probeLimit()
	if maxAux := int(uint64(1)<<uint(s.layout.AuxBits) - 1); limit > maxAux {
		limit = maxAux
	}
	for d := 0; d <= limit && d < rows; d++ {
		idx := uint32((int(home) + d) % rows)
		row, ok := s.fetchChecked(idx, nil)
		if !ok && s.Quarantined(idx) {
			continue
		}
		if !ok {
			return 0, ErrUnreadable
		}
		slot, n := -1, s.bound(idx)
		for i := 0; i < n && slot < 0; i++ {
			if !s.layout.SlotValid(row, i) {
				slot = i
			}
		}
		if slot < 0 && n < s.layout.Slots() {
			slot = n
		}
		if slot < 0 {
			continue
		}
		if err := s.updateRow(idx, true, func(wrow []uint64) error {
			return s.layout.WriteSlot(wrow, slot, rec)
		}); err != nil {
			return 0, err
		}
		s.count++
		s.homeLoad[home]++
		if d > 0 {
			s.spill[home]++
			s.disp += d
			s.raiseReach(home, uint64(d))
		}
		return d, nil
	}
	return 0, ErrFull
}

func (o oracle) deleteAt(home uint32, key bitutil.Ternary) error {
	s := o.s
	if int(home) >= s.cfg.Rows() {
		return fmt.Errorf("caram: home bucket %d out of range", home)
	}
	bucket, slot, found := o.locate(home, key)
	if !found {
		return ErrNotFound
	}
	rows := s.cfg.Rows()
	if s.Quarantined(bucket) {
		s.layout.ClearSlot(s.ecc.shadowRow(bucket), slot)
	} else {
		s.updateRow(bucket, true, func(row []uint64) error { //nolint:errcheck
			s.layout.ClearSlot(row, slot)
			return nil
		})
	}
	s.count--
	s.homeLoad[home]--
	if d := (int(bucket) - int(home) + rows) % rows; d > 0 {
		s.spill[home]--
		s.disp -= d
	}
	return nil
}

// sameState reports the first difference between two slices' storage,
// bookkeeping, charges and error-coding state, or "".
func sameState(a, b *Slice) string {
	if aw, bw := a.array.PeekWords(), b.array.PeekWords(); !slices.Equal(aw, bw) {
		for w := range aw {
			if aw[w] != bw[w] {
				return fmt.Sprintf("storage word %d (row %d): %#x vs oracle %#x", w, w/a.array.RowWords(), aw[w], bw[w])
			}
		}
	}
	for r := range a.mark {
		idx := uint32(r)
		if am, bm := a.mark[r].Load(), b.mark[r].Load(); am != bm {
			return fmt.Sprintf("row %d: mark %d vs oracle %d", r, am, bm)
		}
		if a.homeLoad[r] != b.homeLoad[r] || a.spill[r] != b.spill[r] {
			return fmt.Sprintf("row %d: homeLoad %d spill %d vs oracle %d %d", r, a.homeLoad[r], a.spill[r], b.homeLoad[r], b.spill[r])
		}
		if a.Reach(idx) != b.Reach(idx) || a.Quarantined(idx) != b.Quarantined(idx) {
			return fmt.Sprintf("row %d: reach %d quarantined %v vs oracle %d %v", r, a.Reach(idx), a.Quarantined(idx), b.Reach(idx), b.Quarantined(idx))
		}
		if av, bv := a.array.RowVersion(idx), b.array.RowVersion(idx); av != bv {
			return fmt.Sprintf("row %d: seqlock version %d vs oracle %d", r, av, bv)
		}
	}
	if a.count != b.count || a.disp != b.disp {
		return fmt.Sprintf("count %d displacement sum %d vs oracle %d %d", a.count, a.disp, b.count, b.disp)
	}
	if as, bs := a.Stats(), b.Stats(); as != bs {
		return fmt.Sprintf("slice stats %+v vs oracle %+v", as, bs)
	}
	if as, bs := a.array.Stats(), b.array.Stats(); as != bs {
		return fmt.Sprintf("array stats %+v vs oracle %+v", as, bs)
	}
	if a.ecc != nil {
		if a.ecc.st != b.ecc.st || a.ecc.nQuar != b.ecc.nQuar {
			return fmt.Sprintf("ecc stats %+v (%d quarantined) vs oracle %+v (%d)", a.ecc.st, a.ecc.nQuar, b.ecc.st, b.ecc.nQuar)
		}
		if !slices.Equal(a.ecc.shadow, b.ecc.shadow) || !slices.Equal(a.ecc.check, b.ecc.check) || !slices.Equal(a.ecc.quarBits, b.ecc.quarBits) {
			return "ecc shadow, check words or quarantine ledger differ"
		}
	}
	return ""
}

// samePlacement loads a twin of s from a freeze of it and reports the
// first way the twin's rebuilt placement bookkeeping differs from the
// one s kept, or "".
func samePlacement(s *Slice) string {
	tw := MustNew(s.cfg)
	if err := loadImage(tw, frozenImage(s)); err != nil {
		return err.Error()
	}
	if got, want := tw.Placement(), s.Placement(); got != want {
		return fmt.Sprintf("Placement %+v, live %+v", got, want)
	}
	if got, want := tw.HomeLoads(), s.HomeLoads(); !slices.Equal(got, want) {
		return fmt.Sprintf("HomeLoads %v, live %v", got, want)
	}
	if got, want := tw.ExpectedRows(), s.ExpectedRows(); got != want {
		return fmt.Sprintf("ExpectedRows %v, live %v", got, want)
	}
	return ""
}

// writePathCase is one kind of slice the suites run on: the four
// compiled comparator variants, with and without duplicates, probe
// limits, error coding and a live fault injector.
type writePathCase struct {
	name   string
	cfg    Config
	faults *fault.Config // both slices get an injector with this config
	values int           // key values are drawn from [1, values]
}

func writePathCases() []writePathCase {
	mk := func(keyBits, dataBits, slots int, ternary bool) Config {
		slot := 1 + keyBits + dataBits
		if ternary {
			slot += keyBits
		}
		return Config{
			IndexBits: 3, RowBits: slots*slot + 8, KeyBits: keyBits, DataBits: dataBits,
			Ternary: ternary, Index: hash.NewMultShift(3),
		}
	}
	with := func(c Config, f func(*Config)) Config { f(&c); return c }
	soft := &fault.Config{Seed: 22, PSingle: 0.04, PDouble: 0.01, PReadErr: 0.02, PSpike: 0.02,
		Stuck: []fault.StuckCell{{Row: 2, Word: 0, Bit: 9, Value: 1}}}
	return []writePathCase{
		{name: "binary1", cfg: mk(64, 32, 3, false), values: 40},
		{name: "binary2/probe2", cfg: with(mk(128, 16, 3, false), func(c *Config) { c.ProbeLimit = 2 }), values: 40},
		{name: "binary1/noprobing", cfg: with(mk(32, 8, 4, false), func(c *Config) { c.ProbeLimit = NoProbing }), values: 60},
		{name: "ternary1/dups", cfg: with(mk(24, 32, 3, true), func(c *Config) { c.AllowDuplicates = true }), values: 12},
		{name: "ternary2", cfg: mk(104, 32, 3, true), values: 12},
		{name: "ternary1/wide-row", cfg: mk(8, 0, 70, true), values: 200},
		{name: "binary1/ecc", cfg: with(mk(64, 32, 3, false), func(c *Config) { c.ECC = true }), values: 40},
		{name: "ternary1/dups/ecc+faults", cfg: with(mk(24, 32, 3, true), func(c *Config) { c.AllowDuplicates, c.ECC = true, true }), faults: soft, values: 12},
		{name: "binary2/ecc+faults", cfg: with(mk(100, 20, 3, false), func(c *Config) { c.ECC = true }), faults: soft, values: 40},
		{name: "binary1/faults-unprotected", cfg: mk(64, 32, 3, false), faults: soft, values: 40},
	}
}

// build makes the case's slice, its injector attached and enabled.
func (tc writePathCase) build() *Slice {
	s := MustNew(tc.cfg)
	if tc.faults != nil {
		inj := fault.New(*tc.faults)
		inj.Enable()
		s.array.InstallFaults(inj)
	}
	return s
}

// key draws a key: exact on binary layouts — but for one in eight, which
// carries a search mask no binary slot can equal — and, on ternary ones,
// a value under one of a few nested masks, so that stored keys that
// match a key without being it are the common case.
func (tc writePathCase) key(rng *rand.Rand) bitutil.Ternary {
	v := bitutil.FromUint64(uint64(1 + rng.Intn(tc.values)))
	if tc.cfg.KeyBits > 64 {
		v.Hi = v.Lo * 0x9e3779b97f4a7c15 >> uint(128-tc.cfg.KeyBits)
	}
	masks := []uint64{0, 0, 1, 3, 7}
	if !tc.cfg.Ternary {
		masks = []uint64{0, 0, 0, 0, 0, 0, 0, 1}
	}
	return bitutil.NewTernary(v, bitutil.FromUint64(masks[rng.Intn(len(masks))]))
}

// TestWritePathPlacementIdentity is the placement-identity property: a
// random schedule of every mutator, applied to one slice through the
// write path and to its twin through the oracle, returns the same
// results and leaves the same storage, marks, home loads, reaches,
// versions, statistics, charges and error-coding state after every
// single step — with a fault injector attached, that includes the two
// injectors having been asked for the same fetches in the same order.
// Every few steps a batch of keys is located both ways (found, bucket
// and slot) on the locked path and through Contains, and looked up on
// the locked path and on a lock-free Reader, and — wherever storage is
// protected — a twin loaded from a freeze of the slice, as recovery
// loads a snapshot, rebuilds the same placement bookkeeping the write
// path kept (Placement, HomeLoads, ExpectedRows); and Verify holds
// throughout wherever storage is protected.
func TestWritePathPlacementIdentity(t *testing.T) {
	for _, tc := range writePathCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			a, b := tc.build(), tc.build()
			o := oracle{b}
			rd, rdb := a.NewReader(), b.NewReader()
			rows := uint32(a.cfg.Rows())
			deleted := 0
			errsEqual := func(x, y error) bool {
				return x == y || (x != nil && y != nil && x.Error() == y.Error())
			}
			for step := 0; step < 2000; step++ {
				key := tc.key(rng)
				data := bitutil.FromUint64(rng.Uint64()).Trunc(a.cfg.DataBits)
				home := a.Index(key.Value)
				if tc.cfg.AllowDuplicates && rng.Intn(3) == 0 {
					// Any of the key's homes, now and then one out of range.
					homes := append(a.homes(nil, key), rows)
					home = homes[rng.Intn(len(homes))]
				}
				var op string
				var ea, eb error
				switch r := rng.Intn(8); {
				case r < 4:
					var da, db int
					op = fmt.Sprintf("Place(%d, %s)", home, key.String(a.cfg.KeyBits))
					da, ea = a.Place(home, match.Record{Key: key, Data: data})
					db, eb = o.place(home, match.Record{Key: key, Data: data})
					if da != db {
						t.Fatalf("step %d %s: displacement %d, oracle %d", step, op, da, db)
					}
				case r < 7:
					op = fmt.Sprintf("DeleteAt(%d, %s)", home, key.String(a.cfg.KeyBits))
					if ea, eb = a.DeleteAt(home, key), o.deleteAt(home, key); ea == nil {
						deleted++
					}
				default:
					op = "Scrub"
					if ra, rb := a.Scrub(), b.Scrub(); ra != rb {
						t.Fatalf("step %d Scrub: %+v, oracle %+v", step, ra, rb)
					}
				}
				if !errsEqual(ea, eb) {
					t.Fatalf("step %d %s: %v, oracle %v", step, op, ea, eb)
				}
				if diff := sameState(a, b); diff != "" {
					t.Fatalf("step %d %s (%v): %s", step, op, ea, diff)
				}
				protected := tc.faults == nil || tc.cfg.ECC
				if v := a.Verify(); v != "" && protected {
					t.Fatalf("step %d %s: Verify: %s", step, op, v)
				}
				if step%8 != 0 {
					continue
				}
				if protected {
					if diff := samePlacement(a); diff != "" {
						t.Fatalf("step %d %s: reloaded twin: %s", step, op, diff)
					}
				}
				for i := 0; i < 12; i++ {
					key := tc.key(rng)
					home := uint32(rng.Intn(int(rows)))
					ab, as, _, af := a.locate(&a.res, home, key)
					ob, os, of := o.locate(home, key)
					if af != of || ab != ob || as != os {
						t.Fatalf("step %d locate(%d, %s): found=%v at (%d, %d), oracle found=%v at (%d, %d)",
							step, home, key.String(a.cfg.KeyBits), af, ab, as, of, ob, os)
					}
					_, _, want := o.locate(b.Index(key.Value), key)
					if got := a.Contains(key); got != want {
						t.Fatalf("step %d Contains(%s) = %v, oracle %v", step, key.String(a.cfg.KeyBits), got, want)
					}
					// Lookups charge, so each runs on both twins and their
					// injectors see the same fetches. A Reader certifies or
					// escalates; what it certifies is the locked answer
					// unless a fault erred that one.
					locked := a.Lookup(key)
					if lb := b.Lookup(key); lb != locked {
						t.Fatalf("step %d Lookup(%s) = %+v, twin %+v", step, key.String(a.cfg.KeyBits), locked, lb)
					}
					got, ok := rd.Lookup(key, nil)
					if gb, okb := rdb.Lookup(key, nil); gb != got || okb != ok {
						t.Fatalf("step %d Reader.Lookup(%s) = %+v, %v, twin %+v, %v", step, key.String(a.cfg.KeyBits), got, ok, gb, okb)
					}
					if ok && !locked.Erred && got != locked {
						t.Fatalf("step %d Reader.Lookup(%s) = %+v, locked %+v", step, key.String(a.cfg.KeyBits), got, locked)
					}
				}
				if diff := sameState(a, b); diff != "" {
					t.Fatalf("step %d: locating or looking up moved something: %s", step, diff)
				}
			}
			if a.count == 0 || deleted == 0 || (a.disp == 0 && tc.cfg.Slots() < 8 && tc.cfg.ProbeLimit != NoProbing) {
				t.Fatalf("schedule exercised too little: %d records, %d deleted, displacements %d", a.count, deleted, a.disp)
			}
			if tc.faults != nil && tc.cfg.ECC && (a.ecc.st.CorrectedBits == 0 || a.ecc.st.Uncorrectable == 0 || a.ecc.st.ScrubReleased == 0) {
				t.Fatalf("fault schedule exercised too little: %+v", a.ecc.st)
			}
		})
	}
}

// TestLocateChainDuplicates: with AllowDuplicates, copies of one key
// placed at its home fill it and spill down its chain; locate resolves
// to the first equal slot in probe order, and as the copies in front are
// deleted, to the one that spilled — each delete giving back its own
// copy's bookkeeping.
func TestLocateChainDuplicates(t *testing.T) {
	s := MustNew(Config{
		IndexBits: 2, RowBits: 2*(1+16+16+8) + 8, KeyBits: 16, DataBits: 8,
		Ternary: true, AllowDuplicates: true, Index: hash.LowBits(2),
	})
	key := bitutil.NewTernary(bitutil.FromUint64(0x1200), bitutil.FromUint64(0xff))
	cover := bitutil.NewTernary(bitutil.FromUint64(0x1000), bitutil.FromUint64(0xfff)) // matches key, is not it
	home := s.Index(key.Value)
	for i, k := range []bitutil.Ternary{cover, key, key, cover} {
		if _, err := s.Place(home, match.Record{Key: k, Data: bitutil.FromUint64(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range [][2]int{{0, 1}, {1, 0}} { // (displacement, slot): behind cover, then the spilled copy
		b, slot, _, found := s.locate(&s.res, home, key)
		ob, oslot, ofound := oracle{s}.locate(home, key)
		if !found || int(b) != (int(home)+want[0])%4 || slot != want[1] || ob != b || oslot != slot || !ofound {
			t.Fatalf("locate = (%d, %d, %v), oracle (%d, %d, %v), want displacement %d slot %d", b, slot, found, ob, oslot, ofound, want[0], want[1])
		}
		if err := s.DeleteAt(home, key); err != nil {
			t.Fatal(err)
		}
		if v := s.Verify(); v != "" {
			t.Fatal(v)
		}
	}
	if _, _, _, found := s.locate(&s.res, home, key); found || s.Contains(key) {
		t.Fatal("located a key whose copies are all deleted (two covering records remain)")
	}
	if p := s.Placement(); p.Records != 2 || p.SpilledRecords != 1 || s.ExpectedRows() != 1.5 {
		t.Fatalf("two covers left, one spilled: %+v, expected rows %v", p, s.ExpectedRows())
	}
}

// TestLocateScansQuarantinedShadow: a quarantined row is located through
// its shadow — the stored bits, here with the key itself struck, are out
// of service — and the mutation lands in the shadow too.
func TestLocateScansQuarantinedShadow(t *testing.T) {
	s := MustNew(eccConfig())
	for _, k := range []uint64{0x505, 0x515} {
		if err := s.Insert(rec(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(s, 5, 2) // two bits of slot 0's key: 0x505 is not what is stored any more
	corrupt(s, 5, 3)
	s.Lookup(bitutil.Exact(bitutil.FromUint64(0x515)))
	if !s.Quarantined(5) {
		t.Fatal("bucket 5 not quarantined")
	}
	key := bitutil.Exact(bitutil.FromUint64(0x505))
	if b, slot, _, found := s.locate(&s.res, 5, key); !found || b != 5 || slot != 0 {
		t.Fatalf("locate through the shadow = (%d, %d, %v), want (5, 0, true)", b, slot, found)
	}
	if !s.Contains(key) {
		t.Fatal("Contains missed a record of a quarantined row")
	}
	if err := s.Insert(rec(0x505, 9)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert into a quarantined home: %v", err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if s.Contains(key) || s.Scrub().Released != 1 || s.Contains(key) {
		t.Fatal("deleted record still located, before or after the scrub")
	}
	if lr := s.Lookup(bitutil.Exact(bitutil.FromUint64(0x515))); !lr.Found {
		t.Fatal("the row's other record lost")
	}
	if v := s.Verify(); v != "" {
		t.Fatal(v)
	}
}

// TestReaderSingleSlotFlipStress is dirty-word publication under load:
// one slot of a row is deleted and re-inserted 10⁵ times — each commit
// stores the two or three words that slot touches, not the row — while
// readers snapshot the row through the seqlock. Every certified snapshot
// must be, word for word, one of the two images ever published: a word
// the writer skipped holds what both hold there. Run under -race by
// `make write-guard` and `make seqlock-guard`.
func TestReaderSingleSlotFlipStress(t *testing.T) {
	const flips = 100_000
	s := seqSlice(false)
	k := [3]uint64{keyAt(s, 7, 0), keyAt(s, 7, 1), keyAt(s, 7, 2)}
	for _, key := range k {
		if err := s.Insert(seqRec(key, key)); err != nil {
			t.Fatal(err)
		}
	}
	// The flipped record sits in the middle: the mark does not move.
	with := append([]uint64(nil), s.array.PeekRow(7)...)
	if err := s.Delete(seqKey(k[1])); err != nil {
		t.Fatal(err)
	}
	without := append([]uint64(nil), s.array.PeekRow(7)...)
	changed := 0
	for w := range with {
		if with[w] != without[w] {
			changed++
		}
	}
	if changed == 0 || changed == len(with) {
		t.Fatalf("the flip changes %d of %d words; the test wants a proper subset", changed, len(with))
	}

	var stop atomic.Bool
	var seen [2]atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := s.NewReader()
			buf := make([]uint64, len(with))
			for !stop.Load() {
				if !s.array.TryPeekRow(7, buf) {
					runtime.Gosched()
					continue
				}
				switch {
				case slices.Equal(buf, with):
					seen[0].Add(1)
				case slices.Equal(buf, without):
					seen[1].Add(1)
				default:
					t.Errorf("certified snapshot %x is neither published image (%x, %x)", buf, with, without)
					return
				}
				// The bounded snapshot the Reader itself takes, judged by
				// what it finds: the flanking records, always.
				for _, key := range []uint64{k[0], k[2]} {
					if lr, ok := rd.Lookup(seqKey(key), nil); ok && (!lr.Found || lr.Record.Data.Uint64() != key) {
						t.Errorf("Reader lost key %x beside the flipped slot: %+v", key, lr)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < flips/2; i++ {
		if err := s.Insert(seqRec(k[1], k[1])); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(seqKey(k[1])); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if !slices.Equal(s.array.PeekRow(7), without) {
		t.Fatal("row did not return to its image")
	}
	if seen[0].Load()+seen[1].Load() == 0 {
		t.Fatal("no certified snapshots; harness exercised nothing")
	}
	t.Logf("certified snapshots: %d with the record, %d without", seen[0].Load(), seen[1].Load())
}

// TestUnchangedCommitStillMovesVersion: an UpdateWhere that writes the data
// the record already holds changes no word, so the commit stores none —
// and still opens and closes the row's seqlock window and is charged as
// the row write it is.
func TestUnchangedCommitStillMovesVersion(t *testing.T) {
	s := seqSlice(false)
	if err := s.Insert(seqRec(0x77, 5)); err != nil {
		t.Fatal(err)
	}
	idx := s.Index(bitutil.FromUint64(0x77))
	before := append([]uint64(nil), s.array.PeekRow(idx)...)
	v, st := s.array.RowVersion(idx), s.array.Stats()
	if n := s.UpdateWhere(seqKey(0x77), func(r match.Record) bitutil.Vec128 { return r.Data }); n != 1 {
		t.Fatalf("rewrote %d records, want 1", n)
	}
	if got := s.array.RowVersion(idx); got != v+2 {
		t.Fatalf("version %d -> %d, want two bumps", v, got)
	}
	if got := s.array.Stats(); got.RowWrites != st.RowWrites+1 {
		t.Fatalf("row writes %d -> %d, want one charged", st.RowWrites, got.RowWrites)
	}
	if !slices.Equal(s.array.PeekRow(idx), before) {
		t.Fatal("row changed")
	}
}

// TestTouchChangesAndChargesNothing: the touch stage is invisible. On
// every kind of slice, a random schedule of inserts and deletes applied
// to one slice with each chunk's home rows touched first, and to its twin
// without, leaves the two in the same state after every step — storage,
// marks, home loads, reaches, versions, statistics, charges, error-coding
// state and, with a fault injector attached, the fetches it was asked for.
func TestTouchChangesAndChargesNothing(t *testing.T) {
	for _, tc := range writePathCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(37))
			touched, plain := tc.build(), tc.build()
			for step := 0; step < 40; step++ {
				keys := make([]bitutil.Ternary, 1+rng.Intn(BatchChunk))
				homes := make([]uint32, len(keys))
				for i := range keys {
					keys[i] = tc.key(rng)
					homes[i] = touched.Index(keys[i].Value)
				}
				touched.Touch(homes)
				for _, k := range keys {
					if rng.Intn(3) == 0 {
						touched.Delete(k) //nolint:errcheck // compared below
						plain.Delete(k)   //nolint:errcheck
					} else {
						r := match.Record{Key: k, Data: bitutil.FromUint64(uint64(step))}
						touched.Insert(r) //nolint:errcheck
						plain.Insert(r)   //nolint:errcheck
					}
				}
				if d := sameState(touched, plain); d != "" {
					t.Fatalf("step %d: touched slice vs untouched: %s", step, d)
				}
			}
		})
	}
}

// TestWritePathZeroAlloc: the mutators, the touch stage and the
// membership test allocate nothing.
func TestWritePathZeroAlloc(t *testing.T) {
	s := MustNew(smallConfig())
	for i := uint64(0); i < 40; i++ {
		if err := s.Insert(rec(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	fresh, held, absent := rec(1000, 1), rec(7, 1), bitutil.Exact(bitutil.FromUint64(2000))
	homes := []uint32{s.Index(fresh.Key.Value), s.Index(held.Key.Value), s.Index(absent.Value)}
	if n := testing.AllocsPerRun(200, func() {
		s.Touch(homes)
		if err := s.Insert(fresh); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(fresh.Key); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(held); err != ErrExists {
			t.Fatal(err)
		}
		if err := s.Delete(absent); err != ErrNotFound {
			t.Fatal(err)
		}
		if !s.Contains(held.Key) || s.Contains(absent) {
			t.Fatal("Contains wrong")
		}
	}); n != 0 {
		t.Fatalf("write path allocated %.1f times per run, want 0", n)
	}
}
