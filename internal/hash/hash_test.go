package hash

import (
	"math/rand"
	"testing"
	"testing/quick"

	"caram/internal/bitutil"
)

func TestBitSelectIndex(t *testing.T) {
	gen := NewBitSelect([]int{0, 4, 8})
	key := bitutil.FromUint64(0b1_0001_0001) // bits 0, 4, 8 set
	if got := gen.Index(key); got != 0b111 {
		t.Errorf("Index = %03b, want 111", got)
	}
	if got := gen.Index(bitutil.FromUint64(0b1_0000_0000)); got != 0b100 {
		t.Errorf("Index = %03b, want 100", got)
	}
	if gen.Bits() != 3 {
		t.Errorf("Bits = %d", gen.Bits())
	}
}

func TestBitSelectHighBits(t *testing.T) {
	gen := NewBitSelect([]int{127, 64})
	key := bitutil.FromParts(0, 1|1<<63) // bits 64 and 127 set
	if got := gen.Index(key); got != 0b11 {
		t.Errorf("Index = %02b, want 11", got)
	}
}

func TestBitSelectPanics(t *testing.T) {
	for _, bad := range [][]int{{-1}, {128}, make([]int, 33)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBitSelect(%v) did not panic", bad)
				}
			}()
			NewBitSelect(bad)
		}()
	}
}

func TestTernaryIndicesDuplication(t *testing.T) {
	gen := NewBitSelect([]int{0, 1, 2})
	// Key with don't-care in positions 0 and 2: duplicated into 4 buckets.
	key := bitutil.NewTernary(bitutil.FromUint64(0b010), bitutil.FromUint64(0b101))
	got := gen.TernaryIndices(key)
	want := []uint32{0b010, 0b011, 0b110, 0b111}
	if len(got) != len(want) {
		t.Fatalf("TernaryIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TernaryIndices = %v, want %v", got, want)
		}
	}
	if gen.DuplicationFactor(key) != 4 {
		t.Errorf("DuplicationFactor = %d, want 4", gen.DuplicationFactor(key))
	}
	exact := bitutil.Exact(bitutil.FromUint64(0b111))
	if gen.DuplicationFactor(exact) != 1 {
		t.Error("exact key should not be duplicated")
	}
	if idx := gen.TernaryIndices(exact); len(idx) != 1 || idx[0] != 0b111 {
		t.Errorf("TernaryIndices(exact) = %v", idx)
	}
}

// TestTernaryIndicesAscending holds the subset walk to a brute-force
// scan: for random selections (positions in any order) and random
// ternary keys, the indices are exactly the rows whose cared-for bits
// agree with the key, in ascending order with no sort, appended after
// whatever dst already held.
func TestTernaryIndicesAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 500; trial++ {
		r := 1 + rng.Intn(10)
		gen := NewBitSelect(rng.Perm(64)[:r])
		key := bitutil.NewTernary(bitutil.FromUint64(rng.Uint64()), bitutil.FromUint64(rng.Uint64()&rng.Uint64()))
		var want []uint32
		for idx := uint32(0); idx < 1<<uint(r); idx++ {
			ok := true
			for i, p := range gen.Positions {
				if key.Mask.Bit(p) == 0 && uint(idx>>uint(i)&1) != key.Value.Bit(p) {
					ok = false
				}
			}
			if ok {
				want = append(want, idx)
			}
		}
		got := gen.AppendTernaryIndices([]uint32{7}, key)
		if len(got) != 1+len(want) || got[0] != 7 || len(want) != gen.DuplicationFactor(key) {
			t.Fatalf("positions %v key %v: %v, want 7 then %v", gen.Positions, key, got, want)
		}
		for i := range want {
			if got[1+i] != want[i] {
				t.Fatalf("positions %v key %v: %v, want 7 then %v", gen.Positions, key, got, want)
			}
		}
	}
}

func TestDJBRecurrence(t *testing.T) {
	// Manual expansion for "ab": h = 5381; h = h*33 + 'a'; h = h*33 + 'b'.
	h := uint64(5381)
	h = h*33 + 'a'
	h = h*33 + 'b'
	if got := DJBBytes([]byte("ab")); got != h {
		t.Errorf("DJBBytes = %d, want %d", got, h)
	}
	if DJBString("ab") != DJBBytes([]byte("ab")) {
		t.Error("DJBString disagrees with DJBBytes")
	}
	if DJBBytes(nil) != 5381 {
		t.Error("empty hash must equal the seed")
	}
}

// TestDJBIndexMatchesBytes pins the allocation-free Index walk to the
// reference byte-slice recurrence for every key width.
func TestDJBIndexMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for keyBytes := 1; keyBytes <= 16; keyBytes++ {
		gen := NewDJB(14, keyBytes)
		for i := 0; i < 200; i++ {
			key := bitutil.FromParts(rng.Uint64(), rng.Uint64())
			want := uint32(DJBBytes(key.Bytes(keyBytes*8))) & (1<<14 - 1)
			if got := gen.Index(key); got != want {
				t.Fatalf("keyBytes=%d key=%v: Index=%d, reference=%d", keyBytes, key, got, want)
			}
		}
	}
}

func TestDJBIndexRange(t *testing.T) {
	gen := NewDJB(14, 16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		key := bitutil.FromParts(rng.Uint64(), rng.Uint64())
		if idx := gen.Index(key); idx >= 1<<14 {
			t.Fatalf("index %d out of range", idx)
		}
	}
	if gen.Bits() != 14 {
		t.Errorf("Bits = %d", gen.Bits())
	}
}

func TestGeneratorsStayInRangeQuick(t *testing.T) {
	gens := []IndexGenerator{
		LowBits(11),
		NewDJB(12, 8),
		NewMultShift(13),
		NewXorFold(10, 64),
	}
	for _, g := range gens {
		g := g
		f := func(lo, hi uint64) bool {
			idx := g.Index(bitutil.FromParts(lo, hi))
			return idx < 1<<uint(g.Bits())
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		if g.Name() == "" {
			t.Errorf("generator has empty name")
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	key := bitutil.FromParts(0xdeadbeef, 0x1234)
	gens := []IndexGenerator{LowBits(11), NewDJB(12, 8), NewMultShift(13), NewXorFold(10, 64)}
	for _, g := range gens {
		if g.Index(key) != g.Index(key) {
			t.Errorf("%s: nondeterministic", g.Name())
		}
	}
}

// Distribution smoke test: over random 64-bit keys every generator
// should fill buckets roughly uniformly (no bucket > 4x the mean).
func TestGeneratorUniformity(t *testing.T) {
	const r, n = 8, 1 << 15
	gens := []IndexGenerator{LowBits(r), NewDJB(r, 8), NewMultShift(r), NewXorFold(r, 64)}
	rng := rand.New(rand.NewSource(7))
	keys := make([]bitutil.Vec128, n)
	for i := range keys {
		keys[i] = bitutil.FromUint64(rng.Uint64())
	}
	for _, g := range gens {
		loads := make([]int, 1<<r)
		for _, k := range keys {
			loads[g.Index(k)]++
		}
		mean := n / (1 << r)
		for b, l := range loads {
			if l > 4*mean {
				t.Errorf("%s: bucket %d load %d exceeds 4x mean %d", g.Name(), b, l, mean)
			}
		}
	}
}
