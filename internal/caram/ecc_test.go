package caram

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/match"
)

func eccConfig() Config {
	c := smallConfig()
	c.ECC = true
	return c
}

// corrupt flips bit pos of the stored row directly, bypassing the write
// paths that would sync the shadow — a soft error in storage.
func corrupt(s *Slice, idx uint32, pos int) {
	row := s.array.PeekRow(idx)
	row[pos>>6] ^= 1 << uint(pos&63)
}

// TestCheckWordProperties: single flips always change the parity bit
// and yield the flipped position's code as the syndrome delta; double
// flips preserve parity with a nonzero syndrome delta.
func TestCheckWordProperties(t *testing.T) {
	row := []uint64{0xdeadbeefcafef00d, 0x0123456789abcdef, 0xffff}
	base := checkWord(row)
	for pos := 0; pos < len(row)*64; pos++ {
		row[pos>>6] ^= 1 << uint(pos&63)
		delta := checkWord(row) ^ base
		if delta>>32&1 != 1 {
			t.Fatalf("pos %d: single flip kept parity", pos)
		}
		if got := uint32(delta); got != uint32(pos+1) {
			t.Fatalf("pos %d: syndrome delta %d, want %d", pos, got, pos+1)
		}
		row[pos>>6] ^= 1 << uint(pos&63)
	}
	for _, pair := range [][2]int{{0, 1}, {5, 70}, {63, 64}, {0, 191}} {
		row[pair[0]>>6] ^= 1 << uint(pair[0]&63)
		row[pair[1]>>6] ^= 1 << uint(pair[1]&63)
		delta := checkWord(row) ^ base
		if delta>>32&1 != 0 {
			t.Fatalf("pair %v: double flip changed parity", pair)
		}
		if uint32(delta) == 0 {
			t.Fatalf("pair %v: double flip invisible to syndrome", pair)
		}
		row[pair[0]>>6] ^= 1 << uint(pair[0]&63)
		row[pair[1]>>6] ^= 1 << uint(pair[1]&63)
	}
}

// TestEccCorrectsSingleBit: one flipped bit is corrected in place on
// the next lookup — the hit still lands and the counter advances.
func TestEccCorrectsSingleBit(t *testing.T) {
	s := MustNew(eccConfig())
	for i := 0; i < 20; i++ {
		if err := s.Insert(rec(uint64(i), uint64(100+i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	key := bitutil.Exact(bitutil.FromUint64(7))
	home := s.Index(key.Value)
	corrupt(s, home, 3)
	res := s.Lookup(key)
	if !res.Found || res.Erred {
		t.Fatalf("lookup after single flip: %+v", res)
	}
	st := s.EccStats()
	if st.CorrectedBits != 1 || st.Uncorrectable != 0 {
		t.Fatalf("ecc stats after single flip: %+v", st)
	}
	// Scrub-on-read wrote the correction back: next fetch is clean.
	s.Lookup(key)
	if st := s.EccStats(); st.CorrectedBits != 1 {
		t.Fatalf("correction not persisted: %+v", st)
	}
	if s.QuarantinedRows() != 0 {
		t.Fatal("single-bit error quarantined a row")
	}
}

// TestEccQuarantinesDoubleBit: a double flip is uncorrectable — the row
// leaves service, lookups report the distinct miss-with-error, and
// maintenance still sees the logical contents via the shadow.
func TestEccQuarantinesDoubleBit(t *testing.T) {
	s := MustNew(eccConfig())
	for i := 0; i < 20; i++ {
		if err := s.Insert(rec(uint64(i), uint64(100+i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	key := bitutil.Exact(bitutil.FromUint64(7))
	home := s.Index(key.Value)
	corrupt(s, home, 3)
	corrupt(s, home, 90)
	res := s.Lookup(key)
	if res.Found || !res.Erred {
		t.Fatalf("lookup after double flip: %+v", res)
	}
	st := s.EccStats()
	if st.Uncorrectable != 1 {
		t.Fatalf("ecc stats after double flip: %+v", st)
	}
	if s.QuarantinedRows() != 1 || !s.Quarantined(home) {
		t.Fatal("row not quarantined")
	}
	// Subsequent lookups skip the row without re-detecting.
	s.Lookup(key)
	st = s.EccStats()
	if st.Uncorrectable != 1 || st.QuarantineSkips == 0 {
		t.Fatalf("quarantine not sticky: %+v", st)
	}
	// The logical view survives: Contains and Records see the record.
	if !s.Contains(key) {
		t.Fatal("Contains lost the record during quarantine")
	}
	seen := false
	s.Records(func(b uint32, slot int, r match.Record) bool {
		if r.Key.Equal(key) {
			seen = true
		}
		return true
	})
	if !seen {
		t.Fatal("Records lost the record during quarantine")
	}
	if got := s.Stats().Erred; got != 2 {
		t.Fatalf("Erred lookups = %d, want 2", got)
	}
}

// TestScrubRestoresQuarantinedRow: scrub copies the shadow back,
// releases the quarantine, and the record is findable again. A delete
// issued during quarantine lands in the shadow, so the scrubbed row
// comes back without the deleted record.
func TestScrubRestoresQuarantinedRow(t *testing.T) {
	s := MustNew(eccConfig())
	for i := 0; i < 20; i++ {
		if err := s.Insert(rec(uint64(i), uint64(100+i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	key := bitutil.Exact(bitutil.FromUint64(7))
	home := s.Index(key.Value)
	corrupt(s, home, 3)
	corrupt(s, home, 90)
	if res := s.Lookup(key); res.Found {
		t.Fatal("corrupt row still hit")
	}
	// Delete a *different* record that lives in the same quarantined
	// bucket chain, if any shares the bucket; deleting key 7 itself is
	// the stronger test — it must succeed against the shadow.
	if err := s.Delete(key); err != nil {
		t.Fatalf("delete during quarantine: %v", err)
	}
	rep := s.Scrub()
	if rep.Released != 1 || rep.RepairedRows != 1 {
		t.Fatalf("scrub report: %+v", rep)
	}
	if s.QuarantinedRows() != 0 {
		t.Fatal("quarantine not released")
	}
	st := s.EccStats()
	if st.ScrubRepairedBits != 2 {
		t.Fatalf("ScrubRepairedBits = %d, want 2 (recorded at quarantine)", st.ScrubRepairedBits)
	}
	// The deleted record stays deleted; every other record is back.
	if res := s.Lookup(key); res.Found || res.Erred {
		t.Fatalf("deleted record resurrected by scrub: %+v", res)
	}
	for i := 0; i < 20; i++ {
		if i == 7 {
			continue
		}
		k := bitutil.Exact(bitutil.FromUint64(uint64(i)))
		if res := s.Lookup(k); !res.Found || res.Erred {
			t.Fatalf("record %d lost after scrub: %+v", i, res)
		}
	}
	if v := s.Verify(); v != "" {
		t.Fatalf("post-scrub verify: %s", v)
	}
}

// TestScrubRepairedBitsExcludesShadowWrites: legitimate writes landing
// in a quarantined row's shadow widen the raw restore diff, but the
// corrupt-bit ledger still reports exactly the bits the fault flipped.
func TestScrubRepairedBitsExcludesShadowWrites(t *testing.T) {
	s := MustNew(eccConfig())
	for i := 0; i < 8; i++ {
		if err := s.Insert(rec(uint64(i), uint64(100+i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	key := bitutil.Exact(bitutil.FromUint64(3))
	home := s.Index(key.Value)
	corrupt(s, home, 10)
	corrupt(s, home, 120)
	s.Lookup(key) // detect + quarantine
	if !s.Quarantined(home) {
		t.Fatal("row not quarantined")
	}
	// A shadow-side update changes many data bits (16-bit data field).
	if n := s.UpdateWhere(key, func(match.Record) bitutil.Vec128 { return bitutil.FromUint64(0xffff) }); n != 1 {
		t.Fatalf("update during quarantine rewrote %d records, want 1", n)
	}
	rep := s.Scrub()
	if rep.RepairedBits <= 2 {
		t.Fatalf("raw restore diff %d should exceed the 2 corrupt bits", rep.RepairedBits)
	}
	if st := s.EccStats(); st.ScrubRepairedBits != 2 {
		t.Fatalf("ScrubRepairedBits = %d, want 2", st.ScrubRepairedBits)
	}
	res := s.Lookup(key)
	if !res.Found || res.Record.Data.Lo != 0xffff {
		t.Fatalf("shadow-side update lost: %+v", res)
	}
}

// TestWriteRestoresErrorAtRest: a soft error at rest that no checked
// fetch has settled must not survive a write to its row. Each write path
// rebuilds the row's shadow and check word from the row it publishes;
// started from the stored bits, it would make the flip authoritative,
// and the lookup after the next scrub would return wrong data as a
// clean hit. The write starts from the shadow instead and counts the
// restored bit as corrected.
func TestWriteRestoresErrorAtRest(t *testing.T) {
	key19 := bitutil.Exact(bitutil.FromUint64(19))
	seven := func(match.Record) bitutil.Vec128 { return bitutil.FromUint64(7) }
	for _, tc := range []struct {
		name   string
		write  func(s *Slice) int // records written
		kept19 bool               // key 19 still stored, its data 7
	}{
		{"Delete", func(s *Slice) int { return written(s.Delete(key19)) }, false},
		{"UpdateWhere", func(s *Slice) int { return s.UpdateWhere(key19, seven) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(eccConfig())
			for i := 0; i < 20; i++ {
				if err := s.Insert(rec(uint64(i), uint64(100+i))); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			// Keys 3 and 19 share row 3 under LowBits(4), in slots 0 and
			// 1; the flip is the lowest data bit of key 3's record.
			corrupt(s, 3, 1+32)
			if n := tc.write(s); n != 1 {
				t.Fatalf("wrote %d records, want 1", n)
			}
			s.Scrub()
			if res := s.Lookup(bitutil.Exact(bitutil.FromUint64(3))); !res.Found || res.Erred || res.Record.Data.Uint64() != 103 {
				t.Fatalf("Lookup(3) after the write and a scrub: %+v, want data 103", res)
			}
			if st := s.EccStats(); st.CorrectedBits != 1 || st.Uncorrectable != 0 || st.ScrubRepairedRows != 0 {
				t.Fatalf("ecc stats %+v, want the write's one corrected bit and nothing left to scrub", st)
			}
			if res := s.Lookup(key19); res.Found != tc.kept19 || tc.kept19 && res.Record.Data.Uint64() != 7 {
				t.Fatalf("Lookup(19) = %+v, want found=%v", res, tc.kept19)
			}
			if msg := s.Verify(); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// scans are the bulk scans and the chain-bounded scan, each over key 3,
// returning what it answered; the writers set key 3's data to 7 or
// delete it.
var scans = []struct {
	name string
	run  func(s *Slice) any
}{
	{"SelectWhere", func(s *Slice) any { return s.SelectWhere(key3) }},
	{"SelectChain", func(s *Slice) any { recs, rows := s.SelectChain(key3); return [2]any{recs, rows} }},
	{"UpdateWhere", func(s *Slice) any {
		return s.UpdateWhere(key3, func(match.Record) bitutil.Vec128 { return bitutil.FromUint64(7) })
	}},
}

var key3 = bitutil.Exact(bitutil.FromUint64(3))

// scanTwins returns two ECC slices holding keys 0..19 with data 100+i;
// under LowBits(4) keys 3 and 19 share row 3, in slots 0 and 1.
func scanTwins(t *testing.T) (clean, hit *Slice) {
	t.Helper()
	clean, hit = MustNew(eccConfig()), MustNew(eccConfig())
	for i := 0; i < 20; i++ {
		for _, s := range []*Slice{clean, hit} {
			if err := s.Insert(rec(uint64(i), uint64(100+i))); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
	}
	return clean, hit
}

// sameAnswer fails the test unless the slice hit by an error at rest
// answered the scan and holds the records its clean twin does.
func sameAnswer(t *testing.T, clean, hit *Slice, run func(*Slice) any) {
	t.Helper()
	want, got := run(clean), run(hit)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answered %v, without the error %v", got, want)
	}
	if got, want := records(hit), records(clean); !reflect.DeepEqual(got, want) {
		t.Fatalf("holds %v, without the error %v", got, want)
	}
}

// records lists a slice's logical records in bucket/slot order.
func records(s *Slice) []match.Record {
	var out []match.Record
	s.Records(func(_ uint32, _ int, r match.Record) bool { out = append(out, r); return true })
	return out
}

// TestScanErrorAtRestSingleBit: a scan reads every row through the
// checked fetch, so a single-bit error at rest — in key 3's data or in
// its key — is corrected before the row is matched, and every scan
// answers as if it had never struck.
func TestScanErrorAtRestSingleBit(t *testing.T) {
	for _, flip := range []struct {
		name string
		pos  int
	}{{"data", 1 + 32}, {"key", 1}} {
		for _, sc := range scans {
			t.Run(flip.name+"/"+sc.name, func(t *testing.T) {
				clean, hit := scanTwins(t)
				corrupt(hit, 3, flip.pos)
				sameAnswer(t, clean, hit, sc.run)
				if st := hit.EccStats(); st.CorrectedBits != 1 || st.Uncorrectable != 0 || hit.QuarantinedRows() != 0 {
					t.Fatalf("ecc stats %+v, %d quarantined; want one corrected bit", st, hit.QuarantinedRows())
				}
				if msg := hit.Verify(); msg != "" {
					t.Fatal(msg)
				}
			})
		}
	}
}

// TestScanErrorAtRestDoubleBit: a double-bit error at rest is
// quarantined by the scan's own fetch, and the scan answers from the
// shadow. A writing scan changes only the shadow — the stored row keeps
// its corrupt bits and no write is charged — and the scrub publishes the
// change: the slice verifies clean and a lookup answers as the twin's.
func TestScanErrorAtRestDoubleBit(t *testing.T) {
	for _, sc := range scans {
		t.Run(sc.name, func(t *testing.T) {
			clean, hit := scanTwins(t)
			corrupt(hit, 3, 1+32)
			corrupt(hit, 3, 1+32+3)
			stored := slices.Clone(hit.array.PeekRow(3))
			writes := hit.array.Stats().RowWrites
			sameAnswer(t, clean, hit, sc.run)
			if !hit.Quarantined(3) || hit.EccStats().Uncorrectable != 1 {
				t.Fatalf("row 3 quarantined=%v, ecc stats %+v; want the scan to quarantine it", hit.Quarantined(3), hit.EccStats())
			}
			if got := hit.array.PeekRow(3); !slices.Equal(got, stored) || hit.array.Stats().RowWrites != writes {
				t.Fatalf("the scan wrote the quarantined row: %x, was %x", got, stored)
			}
			hit.Scrub()
			if msg := hit.Verify(); msg != "" {
				t.Fatal(msg)
			}
			if got, want := hit.Lookup(key3), clean.Lookup(key3); got.Found != want.Found || got.Record != want.Record || got.Erred {
				t.Fatalf("Lookup(3) after the scrub = %+v, want %+v", got, want)
			}
		})
	}
}

// written is 1 for a nil error, 0 otherwise.
func written(err error) int {
	if err != nil {
		return 0
	}
	return 1
}

// TestInsertSkipsQuarantinedRow: placement never lands a record in an
// out-of-service row; it spills past it and stays reachable.
func TestInsertSkipsQuarantinedRow(t *testing.T) {
	s := MustNew(eccConfig())
	// Quarantine bucket 5 (LowBits(4) of 0x505 is 5) by corrupting it
	// while a record is there.
	if err := s.Insert(rec(0x505, 1)); err != nil {
		t.Fatal(err)
	}
	corrupt(s, 5, 3)
	corrupt(s, 5, 80)
	s.Lookup(bitutil.Exact(bitutil.FromUint64(0x505)))
	if !s.Quarantined(5) {
		t.Fatal("bucket 5 not quarantined")
	}
	// New records homing at 5 (low nibble 5) must spill to bucket 6+.
	spillKeys := []uint64{0x15, 0x25, 0x35}
	for _, k := range spillKeys {
		if err := s.Insert(rec(k, 2)); err != nil {
			t.Fatalf("insert during quarantine: %v", err)
		}
	}
	s.Records(func(b uint32, slot int, r match.Record) bool {
		if b == 5 && r.Key.Value.Lo != 0x505 {
			t.Fatalf("record %x placed into quarantined bucket", r.Key.Value.Lo)
		}
		return true
	})
	for _, k := range spillKeys {
		if res := s.Lookup(bitutil.Exact(bitutil.FromUint64(k))); !res.Found {
			t.Fatalf("spilled record %x unreachable: %+v", k, res)
		}
	}
}

// TestEnableECCAfterLoad: LoadImageFrom on an ECC slice rebuilds checks
// and shadow from the new contents; EnableECC on a populated plain slice
// protects from that state onward.
func TestEnableECCAfterLoad(t *testing.T) {
	src := MustNew(smallConfig())
	for i := 0; i < 12; i++ {
		if err := src.Insert(rec(uint64(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	dst := MustNew(eccConfig())
	if err := loadImage(dst, frozenImage(src)); err != nil {
		t.Fatal(err)
	}
	// Every row must verify cleanly against its rebuilt check word.
	for i := 0; i < 12; i++ {
		k := bitutil.Exact(bitutil.FromUint64(uint64(i)))
		if res := dst.Lookup(k); !res.Found || res.Erred {
			t.Fatalf("record %d after LoadImageFrom: %+v", i, res)
		}
	}
	if st := dst.EccStats(); st.CorrectedBits != 0 || st.Uncorrectable != 0 {
		t.Fatalf("rebuilt checks flagged clean rows: %+v", st)
	}
	// Late enablement on a populated slice.
	late := MustNew(smallConfig())
	for i := 0; i < 12; i++ {
		if err := late.Insert(rec(uint64(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	late.EnableECC()
	k := bitutil.Exact(bitutil.FromUint64(uint64(4)))
	corrupt(late, late.Index(k.Value), 2)
	if res := late.Lookup(k); !res.Found {
		t.Fatalf("late-enabled ECC failed to correct: %+v", res)
	}
	if st := late.EccStats(); st.CorrectedBits != 1 {
		t.Fatalf("late-enabled ECC stats: %+v", st)
	}
}

// TestEccOffIsInert: without ECC the new paths are pass-throughs —
// no stats, no quarantine, Scrub reports zero.
func TestEccOffIsInert(t *testing.T) {
	s := MustNew(smallConfig())
	if err := s.Insert(rec(1, 2)); err != nil {
		t.Fatal(err)
	}
	if s.ecc != nil {
		t.Fatal("ECC on by default")
	}
	if rep := s.Scrub(); rep != (ScrubReport{}) {
		t.Fatalf("Scrub on plain slice: %+v", rep)
	}
	if st := s.EccStats(); st != (EccStats{}) {
		t.Fatalf("EccStats on plain slice: %+v", st)
	}
	if s.QuarantinedRows() != 0 {
		t.Fatal("phantom quarantine")
	}
}

// sanity guard for the bit helpers this file leans on
var _ = bits.OnesCount64
