package caram

import (
	"testing"
	"testing/quick"

	"caram/internal/bitutil"
	"caram/internal/hash"
	"caram/internal/match"
)

func filledSlice(t *testing.T, n int) *Slice {
	t.Helper()
	s := MustNew(Config{
		IndexBits: 6,
		RowBits:   8*(1+32+16) + 8,
		KeyBits:   32,
		DataBits:  16,
		Index:     hash.NewMultShift(6),
	})
	for i := 0; i < n; i++ {
		if err := s.Insert(rec(uint64(i), uint64(i%100))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestCountAndSelectWhere(t *testing.T) {
	s := filledSlice(t, 300)
	// Mask everything: match all records.
	all := bitutil.NewTernary(bitutil.Vec128{}, bitutil.Mask(32))
	if got := len(s.SelectWhere(all)); got != 300 {
		t.Errorf("SelectWhere(all) = %d records", got)
	}
	// Exact key.
	one := bitutil.Exact(bitutil.FromUint64(42))
	if got := len(s.SelectWhere(one)); got != 1 {
		t.Errorf("SelectWhere(42) = %d records", got)
	}
	// Keys with low byte 0x10: 0x10, 0x110 (272 < 300).
	pattern := bitutil.NewTernary(bitutil.FromUint64(0x10), bitutil.Mask(32).AndNot(bitutil.FromUint64(0xff)))
	recs := s.SelectWhere(pattern)
	if len(recs) != 2 {
		t.Fatalf("SelectWhere = %d records", len(recs))
	}
	for _, r := range recs {
		if r.Key.Value.Uint64()&0xff != 0x10 {
			t.Errorf("selected key %v", r.Key.Value)
		}
	}
	if got := s.SelectWhere(bitutil.Exact(bitutil.FromUint64(9999))); got != nil {
		t.Errorf("SelectWhere miss = %v", got)
	}
}

func TestUpdateWhere(t *testing.T) {
	s := filledSlice(t, 200)
	// Bulk "activation decay": halve the data of every record whose
	// low nibble is 5.
	pattern := bitutil.NewTernary(bitutil.FromUint64(5), bitutil.Mask(32).AndNot(bitutil.FromUint64(0xf)))
	want := len(s.SelectWhere(pattern))
	updated := s.UpdateWhere(pattern, func(r match.Record) bitutil.Vec128 {
		return bitutil.FromUint64(r.Data.Uint64() / 2)
	})
	if updated != want {
		t.Fatalf("updated %d, matched %d", updated, want)
	}
	// Spot-check: key 21 had data 21, now 10; key 20 untouched.
	if got := s.Lookup(bitutil.Exact(bitutil.FromUint64(21))).Record.Data.Uint64(); got != 10 {
		t.Errorf("key 21 data = %d", got)
	}
	if got := s.Lookup(bitutil.Exact(bitutil.FromUint64(20))).Record.Data.Uint64(); got != 20 {
		t.Errorf("key 20 data = %d", got)
	}
	if s.Count() != 200 {
		t.Error("UpdateWhere changed the record count")
	}
}

// frozenImage streams a freeze of s into one buffer: the logical image a
// durability snapshot writes.
func frozenImage(s *Slice) []uint64 {
	f := s.Freeze()
	img := make([]uint64, 0, f.Len())
	f.Each(func(rows []uint64) { img = append(img, rows...) })
	return img
}

// loadImage installs img on s through LoadImageFrom, a row per call, as
// recovery loads a snapshot.
func loadImage(s *Slice, img []uint64) error {
	return s.LoadImageFrom(len(img), func(row []uint64) error {
		img = img[copy(row, img):]
		return nil
	})
}

func TestImageLoadImageRoundTrip(t *testing.T) {
	src := filledSlice(t, 250)
	img := frozenImage(src)

	dst := MustNew(src.Config())
	if err := loadImage(dst, img); err != nil {
		t.Fatal(err)
	}
	if dst.Count() != src.Count() {
		t.Fatalf("count %d, want %d", dst.Count(), src.Count())
	}
	for i := 0; i < 250; i++ {
		res := dst.Lookup(bitutil.Exact(bitutil.FromUint64(uint64(i))))
		if !res.Found || res.Record.Data.Uint64() != uint64(i%100) {
			t.Fatalf("record %d lost in image transfer", i)
		}
	}
	// Placement bookkeeping survives the DMA-style transfer.
	if dst.Placement().SpilledRecords != src.Placement().SpilledRecords {
		t.Error("spill accounting not rebuilt")
	}
	if msg := dst.Verify(); msg != "" {
		t.Errorf("Verify: %s", msg)
	}
	if err := loadImage(dst, img[:3]); err == nil {
		t.Error("short image accepted")
	}
}

// Property: SelectWhere with an all-don't-care key always returns Count
// records, and UpdateWhere with the identity function changes nothing.
func TestBulkOpsPropertiesQuick(t *testing.T) {
	all := bitutil.NewTernary(bitutil.Vec128{}, bitutil.Mask(32))
	f := func(keysRaw []uint16) bool {
		s := MustNew(Config{
			IndexBits: 5,
			RowBits:   6*(1+32+16) + 8,
			KeyBits:   32,
			DataBits:  16,
			Index:     hash.NewMultShift(5),
		})
		inserted := map[uint16]bool{}
		for _, k := range keysRaw {
			if inserted[k] {
				continue
			}
			if err := s.Insert(rec(uint64(k), uint64(k)%97)); err != nil {
				continue // chain full: fine, just skip
			}
			inserted[k] = true
		}
		if len(s.SelectWhere(all)) != s.Count() {
			return false
		}
		if n := s.UpdateWhere(all, func(r match.Record) bitutil.Vec128 { return r.Data }); n != s.Count() {
			return false
		}
		for k := range inserted {
			res := s.Lookup(bitutil.Exact(bitutil.FromUint64(uint64(k))))
			if !res.Found || res.Record.Data.Uint64() != uint64(k)%97 {
				return false
			}
		}
		// Deleting everything empties the slice.
		for k := range inserted {
			if s.Delete(bitutil.Exact(bitutil.FromUint64(uint64(k)))) != nil {
				return false
			}
		}
		return s.Count() == 0 && s.SelectWhere(all) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: image round trips preserve every record for random fills.
func TestImageRoundTripQuick(t *testing.T) {
	f := func(keysRaw []uint16) bool {
		src := MustNew(Config{
			IndexBits: 5,
			RowBits:   6*(1+32+16) + 8,
			KeyBits:   32,
			DataBits:  16,
			Index:     hash.NewMultShift(5),
		})
		for _, k := range keysRaw {
			_ = src.Insert(rec(uint64(k), uint64(k)>>3))
		}
		dst := MustNew(src.Config())
		if err := loadImage(dst, frozenImage(src)); err != nil {
			return false
		}
		if dst.Count() != src.Count() {
			return false
		}
		ok := true
		src.Records(func(_ uint32, _ int, r match.Record) bool {
			if !dst.Contains(r.Key) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
