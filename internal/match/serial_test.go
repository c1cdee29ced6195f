package match

import "caram/internal/bitutil"

// serialOracle is the legacy slot-serial match pipeline, kept as the
// reference the slot comparator is held to: every slot is decoded with
// ReadSlot and compared on its own, and the match vector is freshly
// allocated. The equivalence suites and FuzzKernelVsSerial require a
// Processor to be bit-exact with it — results and, search for search,
// the activity counters it keeps on the side.
type serialOracle struct {
	layout Layout
	p      int
	stats  ProcessorStats
}

// newSerialOracle mirrors NewProcessor: p <= 0 means one processor per
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
	o.stats.Searches++
	o.stats.Passes += uint64(res.Passes)
	for i := 0; i < s; i++ {
		rec, ok := o.layout.ReadSlot(row, i)
		if !ok {
			continue
		}
		o.stats.SlotsTested++
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
	o.stats.Matches += uint64(res.Count)
	return res
}

// Stats is what a Processor that ran the same searches must have
// counted.
func (o *serialOracle) Stats() ProcessorStats { return o.stats }
