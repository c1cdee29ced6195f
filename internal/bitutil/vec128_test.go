package bitutil

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate lets testing/quick draw random vectors.
func (Vec128) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(Vec128{Lo: r.Uint64(), Hi: r.Uint64()})
}

func TestMask(t *testing.T) {
	cases := []struct {
		width int
		want  Vec128
	}{
		{-3, Vec128{}},
		{0, Vec128{}},
		{1, Vec128{Lo: 1}},
		{8, Vec128{Lo: 0xff}},
		{63, Vec128{Lo: 0x7fffffffffffffff}},
		{64, Vec128{Lo: ^uint64(0)}},
		{65, Vec128{Lo: ^uint64(0), Hi: 1}},
		{127, Vec128{Lo: ^uint64(0), Hi: 0x7fffffffffffffff}},
		{128, Vec128{Lo: ^uint64(0), Hi: ^uint64(0)}},
		{200, Vec128{Lo: ^uint64(0), Hi: ^uint64(0)}},
	}
	for _, c := range cases {
		if got := Mask(c.width); got != c.want {
			t.Errorf("Mask(%d) = %v, want %v", c.width, got, c.want)
		}
	}
}

func TestMaskOnesCount(t *testing.T) {
	for w := 0; w <= 128; w++ {
		if got := Mask(w).OnesCount(); got != w {
			t.Fatalf("Mask(%d).OnesCount() = %d", w, got)
		}
	}
}

func TestBitAndWithBit(t *testing.T) {
	var v Vec128
	for _, i := range []int{0, 1, 17, 63, 64, 65, 100, 127} {
		v = v.WithBit(i, 1)
		if v.Bit(i) != 1 {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.OnesCount() != 8 {
		t.Fatalf("OnesCount = %d, want 8", v.OnesCount())
	}
	for _, i := range []int{0, 64, 127} {
		v = v.WithBit(i, 0)
		if v.Bit(i) != 0 {
			t.Fatalf("bit %d not cleared", i)
		}
	}
	if v.Bit(-1) != 0 || v.Bit(128) != 0 {
		t.Fatal("out-of-range Bit should read 0")
	}
	if got := v.WithBit(128, 1); got != v {
		t.Fatal("out-of-range WithBit should be a no-op")
	}
}

func TestShiftBasics(t *testing.T) {
	one := FromUint64(1)
	if got := one.Shl(64); got != (Vec128{Hi: 1}) {
		t.Errorf("1<<64 = %v", got)
	}
	if got := one.Shl(127); got != (Vec128{Hi: 1 << 63}) {
		t.Errorf("1<<127 = %v", got)
	}
	if got := one.Shl(128); !got.IsZero() {
		t.Errorf("1<<128 = %v, want 0", got)
	}
	if got := (Vec128{Hi: 1}).Shr(64); got != one {
		t.Errorf("hi>>64 = %v", got)
	}
	if got := (Vec128{Hi: 1 << 63}).Shr(127); got != one {
		t.Errorf(">>127 = %v", got)
	}
	if got := one.Shl(-1); got != one {
		t.Errorf("negative shift changed value: %v", got)
	}
}

func TestShiftRoundTripQuick(t *testing.T) {
	f := func(v Vec128, nRaw uint8) bool {
		n := int(nRaw) % 128
		// Shifting left then right must preserve the low 128-n bits.
		want := v.Trunc(128 - n)
		return v.Shl(n).Shr(n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBooleanIdentitiesQuick(t *testing.T) {
	f := func(a, b Vec128) bool {
		if a.And(b) != b.And(a) || a.Or(b) != b.Or(a) || a.Xor(b) != b.Xor(a) {
			return false
		}
		if a.AndNot(b) != a.And(b.Not(128)) {
			return false
		}
		if a.Xor(a) != (Vec128{}) {
			return false
		}
		return a.Xor(b).Xor(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{0x01},
		{0xde, 0xad},
		{0xde, 0xad, 0xbe, 0xef},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0},
	}
	for _, b := range cases {
		v := FromBytes(b)
		got := v.Bytes(len(b) * 8)
		if len(b) == 0 {
			if len(got) != 0 {
				t.Errorf("Bytes of empty input = %x", got)
			}
			continue
		}
		if string(got) != string(b) {
			t.Errorf("round trip %x -> %v -> %x", b, v, got)
		}
	}
}

func TestBytesRoundTripQuick(t *testing.T) {
	f := func(v Vec128, wRaw uint8) bool {
		w := 8 * (1 + int(wRaw)%16) // whole bytes, 8..128 bits
		tv := v.Trunc(w)
		return FromBytes(tv.Bytes(w)) == tv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromString(t *testing.T) {
	v := FromString("AB")
	if v.Lo != 0x4142 {
		t.Errorf("FromString(AB) = %v", v)
	}
}

func TestFromBytesLongInputKeepsTail(t *testing.T) {
	b := make([]byte, 20)
	for i := range b {
		b[i] = byte(i)
	}
	if got, want := FromBytes(b), FromBytes(b[4:]); got != want {
		t.Errorf("FromBytes(long) = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	if got := FromUint64(0xbeef).String(); got != "0xbeef" {
		t.Errorf("String = %q", got)
	}
	if got := (Vec128{Lo: 1, Hi: 2}).String(); got != "0x20000000000000001" {
		t.Errorf("String = %q", got)
	}
}

func TestTruncQuick(t *testing.T) {
	f := func(v Vec128, wRaw uint8) bool {
		w := int(wRaw) % 130
		tv := v.Trunc(w)
		// No bits above w survive, and bits below w are unchanged.
		if !tv.AndNot(Mask(w)).IsZero() {
			return false
		}
		return tv.Xor(v).And(Mask(w)).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
