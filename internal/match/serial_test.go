package match

import "caram/internal/bitutil"

// serialOracle is the legacy slot-serial match pipeline, kept as the
// reference the slot comparator is held to: every slot is decoded with
// ReadSlot and compared on its own, and the match vector is freshly
// allocated. The equivalence suites and FuzzKernelVsSerial require a
// Searcher to be bit-exact with it.
type serialOracle struct {
	layout Layout
	p      int
}

// newSerialOracle mirrors NewSearcher: p <= 0 means one processor per
// slot.
func newSerialOracle(layout Layout, p int) *serialOracle {
	if p <= 0 {
		p = layout.Slots()
	}
	return &serialOracle{layout: layout, p: p}
}

func (o *serialOracle) SearchSerial(row []uint64, search bitutil.Ternary) Result {
	s := o.layout.Slots()
	res := Result{
		Vector: make([]uint64, (s+63)/64),
		First:  -1,
		Passes: (s + o.p - 1) / o.p,
	}
	for i := 0; i < s; i++ {
		rec, ok := o.layout.ReadSlot(row, i)
		if !ok {
			continue
		}
		res.SlotsTested++
		if !rec.Key.Matches(search) {
			continue
		}
		res.Vector[i/64] |= 1 << uint(i%64)
		res.Count++
		if res.First < 0 {
			res.First = i
			res.Record = rec
		}
	}
	return res
}
