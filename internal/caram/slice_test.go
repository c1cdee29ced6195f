package caram

import (
	"errors"
	"math/rand"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
)

// smallConfig returns a 16-bucket slice of 32-bit keys with 16-bit data
// and 4 slots per bucket.
func smallConfig() Config {
	return Config{
		IndexBits: 4,
		RowBits:   4*(1+32+16) + 8, // 4 slots + aux
		KeyBits:   32,
		DataBits:  16,
		Index:     hash.LowBits(4),
	}
}

func rec(key, data uint64) match.Record {
	return match.Record{Key: bitutil.Exact(bitutil.FromUint64(key)), Data: bitutil.FromUint64(data)}
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*Config){
		"no index":        func(c *Config) { c.Index = nil },
		"index mismatch":  func(c *Config) { c.Index = hash.LowBits(5) },
		"bad IndexBits":   func(c *Config) { c.IndexBits = 0; c.Index = hash.LowBits(0) },
		"huge IndexBits":  func(c *Config) { c.IndexBits = 31 },
		"negative probes": func(c *Config) { c.ProbeLimit = -2 },
		"bad layout":      func(c *Config) { c.KeyBits = 0 },
	}
	for name, mutate := range cases {
		c := smallConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := smallConfig()
	if c.Rows() != 16 {
		t.Errorf("Rows = %d", c.Rows())
	}
	if c.Slots() != 4 {
		t.Errorf("Slots = %d", c.Slots())
	}
	if c.Capacity() != 64 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

func TestInsertLookup(t *testing.T) {
	s := MustNew(smallConfig())
	if err := s.Insert(rec(0x12345678, 42)); err != nil {
		t.Fatal(err)
	}
	res := s.Lookup(bitutil.Exact(bitutil.FromUint64(0x12345678)))
	if !res.Found || res.Record.Data.Uint64() != 42 {
		t.Fatalf("lookup = %+v", res)
	}
	if res.RowsRead != 1 {
		t.Errorf("RowsRead = %d, want 1 (single memory access)", res.RowsRead)
	}
	miss := s.Lookup(bitutil.Exact(bitutil.FromUint64(0x9999)))
	if miss.Found {
		t.Error("phantom hit")
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	s := MustNew(smallConfig())
	if err := s.Insert(rec(7, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(rec(7, 2)); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate insert: %v", err)
	}
	cfg := smallConfig()
	cfg.AllowDuplicates = true
	d := MustNew(cfg)
	if err := d.Insert(rec(7, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(rec(7, 2)); err != nil {
		t.Errorf("AllowDuplicates insert: %v", err)
	}
	if d.Count() != 2 {
		t.Errorf("Count = %d", d.Count())
	}
}

func TestLinearProbingAndReach(t *testing.T) {
	s := MustNew(smallConfig())
	// 6 keys all hashing to bucket 3 (low 4 bits = 3): 4 fit, 2 spill.
	for i := 0; i < 6; i++ {
		if err := s.Insert(rec(uint64(i)<<4|3, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Reach(3); got != 1 {
		t.Errorf("Reach(3) = %d, want 1", got)
	}
	// Every record must be findable; spilled ones cost 2 accesses.
	for i := 0; i < 6; i++ {
		res := s.Lookup(bitutil.Exact(bitutil.FromUint64(uint64(i)<<4 | 3)))
		if !res.Found || res.Record.Data.Uint64() != uint64(i) {
			t.Fatalf("key %d: %+v", i, res)
		}
		if i < 4 && res.RowsRead != 1 {
			t.Errorf("home-bucket key %d read %d rows", i, res.RowsRead)
		}
		if i >= 4 && res.RowsRead != 2 {
			t.Errorf("spilled key %d read %d rows", i, res.RowsRead)
		}
	}
	p := s.Placement()
	if p.SpilledRecords != 2 || p.OverflowingBuckets != 1 {
		t.Errorf("placement = %+v", p)
	}
	if p.MaxReach != 1 {
		t.Errorf("MaxReach = %d", p.MaxReach)
	}
	if msg := s.Verify(); msg != "" {
		t.Errorf("Verify: %s", msg)
	}
}

func TestProbeWrapsAroundRowEnd(t *testing.T) {
	cfg := smallConfig()
	s := MustNew(cfg)
	// Fill bucket 15 (the last) and spill into bucket 0.
	for i := 0; i < 5; i++ {
		if err := s.Insert(rec(uint64(i)<<4|15, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Lookup(bitutil.Exact(bitutil.FromUint64(4<<4 | 15)))
	if !res.Found {
		t.Fatal("wrapped record not found")
	}
	if msg := s.Verify(); msg != "" {
		t.Errorf("Verify: %s", msg)
	}
}

func TestProbeLimitErrFull(t *testing.T) {
	cfg := smallConfig()
	cfg.ProbeLimit = 1
	s := MustNew(cfg)
	// Capacity along the probe chain from bucket 3: 2 buckets * 4 slots.
	n := 0
	var err error
	for i := 0; i < 20; i++ {
		err = s.Insert(rec(uint64(i)<<4|3, 0))
		if err != nil {
			break
		}
		n++
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v after %d inserts", err, n)
	}
	if n != 8 {
		t.Errorf("placed %d records, want 8", n)
	}
	// The failed insert must not corrupt bookkeeping.
	if msg := s.Verify(); msg != "" {
		t.Errorf("Verify: %s", msg)
	}
}

func TestDelete(t *testing.T) {
	s := MustNew(smallConfig())
	for i := 0; i < 6; i++ {
		if err := s.Insert(rec(uint64(i)<<4|3, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	key := bitutil.Exact(bitutil.FromUint64(2<<4 | 3))
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if s.Lookup(key).Found {
		t.Error("deleted record still found")
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d", s.Count())
	}
	if err := s.Delete(key); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	// Spilled record (displacement 1) deletable too.
	if err := s.Delete(bitutil.Exact(bitutil.FromUint64(5<<4 | 3))); err != nil {
		t.Fatal(err)
	}
	if msg := s.Verify(); msg != "" {
		t.Errorf("Verify: %s", msg)
	}
}

func TestTernaryLPMInSlice(t *testing.T) {
	cfg := Config{
		IndexBits: 2,
		RowBits:   4*(1+8+8+8) + 8,
		KeyBits:   8,
		DataBits:  8,
		Ternary:   true,
		Index:     hash.NewBitSelect([]int{6, 7}), // top two key bits
	}
	s := MustNew(cfg)
	short, _ := bitutil.ParseTernary("11XXXXXX")
	long, _ := bitutil.ParseTernary("1100XXXX")
	if err := s.Insert(match.Record{Key: long, Data: bitutil.FromUint64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(match.Record{Key: short, Data: bitutil.FromUint64(1)}); err != nil {
		t.Fatal(err)
	}
	spec := func(r match.Record) int { return r.Key.Specificity(8) }
	res := s.LookupBest(bitutil.Exact(bitutil.FromUint64(0b11001010)), spec)
	if !res.Found || res.Record.Data.Uint64() != 2 {
		t.Errorf("LPM = %+v, want longest prefix", res)
	}
	res = s.LookupBest(bitutil.Exact(bitutil.FromUint64(0b11111010)), spec)
	if !res.Found || res.Record.Data.Uint64() != 1 {
		t.Errorf("short-prefix match = %+v", res)
	}
	if res := s.LookupBest(bitutil.Exact(bitutil.FromUint64(0b00111010)), spec); res.Found {
		t.Errorf("no-prefix match = %+v", res)
	}
}

// TestPlaceHomeRange: Place and DeleteAt refuse a home bucket past the
// last row, and a record placed at its key's home is found and deleted
// there.
func TestPlaceHomeRange(t *testing.T) {
	s := MustNew(smallConfig())
	r := rec(0x3, 5)
	if _, err := s.Place(99, r); err == nil {
		t.Error("out-of-range home accepted")
	}
	if err := s.DeleteAt(99, r.Key); err == nil {
		t.Error("out-of-range DeleteAt accepted")
	}
	home := s.Index(r.Key.Value)
	if _, err := s.Place(home, r); err != nil || !s.Contains(r.Key) {
		t.Fatalf("Place at the key's home: %v, contained %v", err, s.Contains(r.Key))
	}
	if err := s.DeleteAt(home, r.Key); err != nil || s.Contains(r.Key) || s.Count() != 0 {
		t.Errorf("DeleteAt: %v, count %d", err, s.Count())
	}
}

func TestStatsAndAMAL(t *testing.T) {
	s := MustNew(smallConfig())
	for i := 0; i < 6; i++ {
		if err := s.Insert(rec(uint64(i)<<4|3, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s.Lookup(bitutil.Exact(bitutil.FromUint64(uint64(i)<<4 | 3)))
	}
	st := s.Stats()
	if st.Lookups != 6 || st.Hits != 6 {
		t.Errorf("stats = %+v", st)
	}
	// 4 home hits (1 row) + 2 spilled (2 rows) = 8 rows / 6 lookups.
	if want := 8.0 / 6.0; st.AMAL() != want {
		t.Errorf("AMAL = %f, want %f", st.AMAL(), want)
	}
	if st.HitRate() != 1 {
		t.Errorf("HitRate = %f", st.HitRate())
	}
	s.ResetStats()
	if s.Stats().AMAL() != 0 || s.Stats().HitRate() != 0 {
		t.Error("reset stats not zero")
	}
	// Placement is preserved across ResetStats.
	if s.Placement().SpilledRecords != 2 {
		t.Error("ResetStats clobbered placement")
	}
}

func TestClear(t *testing.T) {
	s := MustNew(smallConfig())
	for i := 0; i < 6; i++ {
		if err := s.Insert(rec(uint64(i)<<4|3, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Clear()
	if s.Count() != 0 || s.LoadFactor() != 0 {
		t.Error("Clear left records")
	}
	p := s.Placement()
	if p.SpilledRecords != 0 || p.OverflowingBuckets != 0 {
		t.Errorf("Clear left placement: %+v", p)
	}
	if s.Lookup(bitutil.Exact(bitutil.FromUint64(3))).Found {
		t.Error("record survived Clear")
	}
}

func TestRecordsIteration(t *testing.T) {
	s := MustNew(smallConfig())
	for i := 0; i < 5; i++ {
		if err := s.Insert(rec(uint64(i)<<4|uint64(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	s.Records(func(b uint32, slot int, r match.Record) bool {
		seen++
		return true
	})
	if seen != 5 {
		t.Errorf("iterated %d records", seen)
	}
	// Early stop.
	seen = 0
	s.Records(func(b uint32, slot int, r match.Record) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Errorf("early stop iterated %d", seen)
	}
}

func TestDRAMTimingPropagates(t *testing.T) {
	cfg := smallConfig()
	cfg.Tech = mem.DRAM
	s := MustNew(cfg)
	if err := s.Insert(rec(1, 1)); err != nil {
		t.Fatal(err)
	}
	s.Lookup(bitutil.Exact(bitutil.FromUint64(1)))
	if got := s.Array().Timing().MinInterval; got != 6 {
		t.Errorf("DRAM MinInterval = %d", got)
	}
	if s.Array().Stats().Cycles == 0 {
		t.Error("no cycles charged")
	}
}

// Property-style randomized test: a few hundred random inserts,
// lookups, and deletes against a map-based oracle.
func TestSliceAgainstOracle(t *testing.T) {
	cfg := Config{
		IndexBits: 5,
		RowBits:   3*(1+24+16) + 8,
		KeyBits:   24,
		DataBits:  16,
		Index:     hash.NewMultShift(5),
	}
	s := MustNew(cfg)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 2000; op++ {
		k := uint64(rng.Intn(300))
		key := bitutil.Exact(bitutil.FromUint64(k).Trunc(24))
		switch rng.Intn(3) {
		case 0: // insert
			v := rng.Uint64() & 0xffff
			err := s.Insert(match.Record{Key: key, Data: bitutil.FromUint64(v)})
			_, exists := oracle[k]
			switch {
			case exists && !errors.Is(err, ErrExists):
				t.Fatalf("op %d: duplicate insert err = %v", op, err)
			case !exists && err == nil:
				oracle[k] = v
			case !exists && errors.Is(err, ErrFull):
				// acceptable: chain full
			case !exists && err != nil:
				t.Fatalf("op %d: insert err = %v", op, err)
			}
		case 1: // lookup
			res := s.Lookup(key)
			v, exists := oracle[k]
			if res.Found != exists {
				t.Fatalf("op %d: key %d found=%v oracle=%v", op, k, res.Found, exists)
			}
			if exists && res.Record.Data.Uint64() != v {
				t.Fatalf("op %d: key %d data=%d want %d", op, k, res.Record.Data.Uint64(), v)
			}
		case 2: // delete
			err := s.Delete(key)
			_, exists := oracle[k]
			if exists && err != nil {
				t.Fatalf("op %d: delete existing err = %v", op, err)
			}
			if !exists && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: delete missing err = %v", op, err)
			}
			delete(oracle, k)
		}
		if op%5 == 0 {
			checkScans(t, s, oracle, op, k)
		}
	}
	if s.Count() != len(oracle) {
		t.Fatalf("count %d, oracle %d", s.Count(), len(oracle))
	}
	if msg := s.Verify(); msg != "" {
		t.Fatalf("Verify: %s", msg)
	}
}

// checkScans holds the port's other users of its one match scratch to
// the oracle, between mutators: SelectWhere for the key k
// with its low 1..6 bits masked, LookupBest for k itself (a masked key
// hashes to one chain, which need not hold every record it matches).
func checkScans(t *testing.T, s *Slice, oracle map[uint64]uint64, op int, k uint64) {
	t.Helper()
	mask := uint64(1)<<(1+op%6) - 1
	q := bitutil.NewTernary(bitutil.FromUint64(k&^mask), bitutil.FromUint64(mask))
	want := map[uint64]uint64{}
	for kk, v := range oracle {
		if kk&^mask == k&^mask {
			want[kk] = v
		}
	}
	recs := s.SelectWhere(q)
	if len(recs) != len(want) {
		t.Fatalf("op %d: SelectWhere(%d/%#x) returned %d records, oracle %d", op, k, mask, len(recs), len(want))
	}
	for _, r := range recs {
		if v, ok := want[r.Key.Value.Uint64()]; !ok || v != r.Data.Uint64() {
			t.Fatalf("op %d: SelectWhere returned %+v, not in the oracle", op, r)
		}
	}
	v, found := oracle[k]
	res := s.LookupBest(bitutil.Exact(bitutil.FromUint64(k)), func(r match.Record) int { return int(r.Data.Uint64()) })
	if res.Found != found || found && res.Record.Data.Uint64() != v {
		t.Fatalf("op %d: LookupBest(%d) = %+v, oracle found=%v data %d", op, k, res, found, v)
	}
}

func TestNoProbing(t *testing.T) {
	cfg := smallConfig()
	cfg.ProbeLimit = NoProbing
	s := MustNew(cfg)
	// 4 slots per bucket: the 5th conflicting key must be rejected, not
	// spilled.
	for i := 0; i < 4; i++ {
		if err := s.Insert(rec(uint64(i)<<4|3, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Insert(rec(4<<4|3, 0)); !errors.Is(err, ErrFull) {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	if s.Placement().SpilledRecords != 0 {
		t.Error("NoProbing spilled a record")
	}
	// Every stored record costs exactly one access.
	for i := 0; i < 4; i++ {
		if res := s.Lookup(bitutil.Exact(bitutil.FromUint64(uint64(i)<<4 | 3))); res.RowsRead != 1 {
			t.Errorf("RowsRead = %d", res.RowsRead)
		}
	}
}

// mulIndex is a multiplicative index generator of 31 bits, many more
// than log2 of the row counts it is reduced modulo.
type mulIndex struct{}

func (mulIndex) Index(k bitutil.Vec128) uint32 { return uint32(k.Lo*2654435761) & (1<<31 - 1) }
func (mulIndex) Bits() int                     { return 31 }
func (mulIndex) Name() string                  { return "mul" }

func TestTotalRowsNonPowerOfTwo(t *testing.T) {
	cfg := Config{
		IndexBits: 10, // documentation only when TotalRows is set
		TotalRows: 160,
		RowBits:   4*(1+32+16) + 8,
		KeyBits:   32,
		DataBits:  16,
		Index:     mulIndex{},
	}
	s := MustNew(cfg)
	if s.Config().Rows() != 160 {
		t.Fatalf("Rows = %d", s.Config().Rows())
	}
	for i := 0; i < 300; i++ {
		if err := s.Insert(rec(uint64(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		res := s.Lookup(bitutil.Exact(bitutil.FromUint64(uint64(i))))
		if !res.Found || res.Record.Data.Uint64() != uint64(i) {
			t.Fatalf("key %d lost", i)
		}
		if int(res.HomeBucket) >= 160 {
			t.Fatalf("home bucket %d out of range", res.HomeBucket)
		}
	}
	// Generator range below TotalRows must be rejected.
	bad := cfg
	bad.Index = hash.LowBits(7) // 128 < 160
	if err := bad.Validate(); err == nil {
		t.Error("undersized generator accepted")
	}
}
