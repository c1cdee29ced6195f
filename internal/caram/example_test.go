package caram_test

import (
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
)

// The canonical flow: configure a slice, store records, search.
func Example() {
	slice := caram.MustNew(caram.Config{
		IndexBits: 6,               // 64 buckets
		RowBits:   4*(1+32+16) + 8, // 4 slots: valid + 32b key + 16b data, + aux
		KeyBits:   32,
		DataBits:  16,
		Tech:      mem.DRAM,
		Index:     hash.NewMultShift(6),
	})
	_ = slice.Insert(match.Record{
		Key:  bitutil.Exact(bitutil.FromUint64(0xbeef)),
		Data: bitutil.FromUint64(1234),
	})
	res := slice.Lookup(bitutil.Exact(bitutil.FromUint64(0xbeef)))
	fmt.Println(res.Found, res.Record.Data.Uint64(), res.RowsRead)
	// Output: true 1234 1
}

// Ternary records give longest-prefix-match semantics: store masked
// keys, search with LookupBest scored by specificity.
func ExampleSlice_LookupBest() {
	slice := caram.MustNew(caram.Config{
		IndexBits: 2,
		RowBits:   4*(1+8+8+8) + 8,
		KeyBits:   8,
		DataBits:  8,
		Ternary:   true,
		Index:     hash.NewBitSelect([]int{6, 7}),
	})
	short, _ := bitutil.ParseTernary("11XXXXXX")
	long, _ := bitutil.ParseTernary("1100XXXX")
	_ = slice.Insert(match.Record{Key: short, Data: bitutil.FromUint64(1)})
	_ = slice.Insert(match.Record{Key: long, Data: bitutil.FromUint64(2)})

	res := slice.LookupBest(
		bitutil.Exact(bitutil.FromUint64(0b11001010)),
		func(r match.Record) int { return r.Key.Specificity(8) },
	)
	fmt.Println(res.Record.Data.Uint64())
	// Output: 2
}

// Bulk evaluation streams the whole database through the match
// processors — here, selecting records whose low nibble is 0x5.
func ExampleSlice_SelectWhere() {
	slice := caram.MustNew(caram.Config{
		IndexBits: 4,
		RowBits:   8*(1+16+8) + 8,
		KeyBits:   16,
		DataBits:  8,
		Index:     hash.NewMultShift(4),
	})
	for i := 0; i < 64; i++ {
		_ = slice.Insert(match.Record{Key: bitutil.Exact(bitutil.FromUint64(uint64(i)))})
	}
	pattern := bitutil.NewTernary(
		bitutil.FromUint64(0x5),
		bitutil.Mask(16).AndNot(bitutil.FromUint64(0xf)), // care only about the low nibble
	)
	fmt.Println(len(slice.SelectWhere(pattern)))
	// Output: 4
}
