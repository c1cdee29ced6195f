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
	if got := s.CountWhere(all); got != 300 {
		t.Errorf("CountWhere(all) = %d", got)
	}
	// Exact key.
	one := bitutil.Exact(bitutil.FromUint64(42))
	if got := s.CountWhere(one); got != 1 {
		t.Errorf("CountWhere(42) = %d", got)
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
	want := s.CountWhere(pattern)
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

func TestDeleteWhere(t *testing.T) {
	s := filledSlice(t, 300)
	// Delete every key with high nibble of low byte = 3 (0x30..0x3f,
	// 0x130..0x13f within range 0..299 -> 0x130..0x12b... just count).
	pattern := bitutil.NewTernary(bitutil.FromUint64(0x30), bitutil.Mask(32).AndNot(bitutil.FromUint64(0xf0)))
	want := s.CountWhere(pattern)
	if want == 0 {
		t.Fatal("pattern matches nothing; bad test setup")
	}
	deleted := s.DeleteWhere(pattern)
	if deleted != want {
		t.Fatalf("deleted %d, matched %d", deleted, want)
	}
	if s.Count() != 300-deleted {
		t.Errorf("Count = %d", s.Count())
	}
	if s.CountWhere(pattern) != 0 {
		t.Error("matches survive DeleteWhere")
	}
	// Untouched records remain findable and invariants hold.
	if !s.Lookup(bitutil.Exact(bitutil.FromUint64(0x11))).Found {
		t.Error("unrelated record lost")
	}
	if msg := s.Verify(); msg != "" {
		t.Errorf("Verify: %s", msg)
	}
	if s.DeleteWhere(bitutil.Exact(bitutil.FromUint64(123456))) != 0 {
		t.Error("DeleteWhere miss deleted something")
	}
}

func TestBuildFromRecords(t *testing.T) {
	s := MustNew(Config{
		IndexBits: 4,
		RowBits:   4*(1+8+8+8) + 8,
		KeyBits:   8,
		DataBits:  8,
		Ternary:   true,
		Index:     hash.NewBitSelect([]int{4, 5, 6, 7}),
	})
	short, _ := bitutil.ParseTernary("1100XXXX")
	long, _ := bitutil.ParseTernary("110000XX")
	recs := []match.Record{
		{Key: short, Data: bitutil.FromUint64(1)}, // inserted list-first...
		{Key: long, Data: bitutil.FromUint64(2)},
	}
	spec := func(r match.Record) int { return r.Key.Specificity(8) }
	if un := s.BuildFromRecords(recs, spec); un != 0 {
		t.Fatalf("unplaced = %d", un)
	}
	// ...but priority ordering puts the long prefix first in the
	// bucket, so the priority encoder (first match) returns it.
	res := s.Lookup(bitutil.Exact(bitutil.FromUint64(0b11000001)))
	if !res.Found || res.Record.Data.Uint64() != 2 {
		t.Errorf("priority build: lookup = %+v", res)
	}
	// Rebuild with nil score keeps list order.
	if un := s.BuildFromRecords(recs, nil); un != 0 {
		t.Fatalf("unplaced = %d", un)
	}
	res = s.Lookup(bitutil.Exact(bitutil.FromUint64(0b11000001)))
	if res.Record.Data.Uint64() != 1 {
		t.Errorf("list-order build: lookup = %+v", res)
	}
}

func TestBuildFromRecordsReportsUnplaced(t *testing.T) {
	s := MustNew(Config{
		IndexBits:       4,
		RowBits:         1*(1+32+16) + 8, // one slot per bucket
		KeyBits:         32,
		DataBits:        16,
		ProbeLimit:      NoProbing,
		Index:           hash.LowBits(4),
		AllowDuplicates: true,
	})
	var recs []match.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, rec(uint64(i)<<4|3, 0)) // all bucket 3
	}
	if un := s.BuildFromRecords(recs, nil); un != 4 {
		t.Errorf("unplaced = %d, want 4", un)
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

// Property: CountWhere with an all-don't-care key always equals Count,
// and UpdateWhere with the identity function changes nothing.
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
		if s.CountWhere(all) != s.Count() {
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
		if s.DeleteWhere(all) != len(inserted) || s.Count() != 0 {
			return false
		}
		return s.CountWhere(all) == 0
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
