package cam

import (
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/match"
)

// Precomputed is the precomputation-based low-power scheme of Lin,
// Chang and Liu (§5.2): the first phase matches a precomputed
// signature — the number of ones in the key — so the second-phase
// search activates only entries sharing the search key's signature.
// As the paper notes, the scheme applies to binary CAMs only: a
// don't-care bit has no definite ones-count.
type Precomputed struct {
	keyBits int
	groups  [][]match.Record // indexed by ones-count 0..keyBits
	total   int
	stats   Stats
}

// NewPrecomputed builds an empty device for keyBits-bit binary keys.
func NewPrecomputed(keyBits int) (*Precomputed, error) {
	if keyBits < 1 || keyBits > 128 {
		return nil, fmt.Errorf("cam: KeyBits %d outside [1,128]", keyBits)
	}
	return &Precomputed{
		keyBits: keyBits,
		groups:  make([][]match.Record, keyBits+1),
	}, nil
}

// Insert stores a binary record under its ones-count signature.
func (p *Precomputed) Insert(rec match.Record) error {
	if !rec.Key.Mask.IsZero() {
		return fmt.Errorf("cam: precomputation CAM is binary only")
	}
	sig := rec.Key.Value.Trunc(p.keyBits).OnesCount()
	p.groups[sig] = append(p.groups[sig], rec)
	p.total++
	p.stats.Inserts++
	return nil
}

// Len returns the stored entry count.
func (p *Precomputed) Len() int { return p.total }

// Search matches an exact key: only the signature group activates.
func (p *Precomputed) Search(key bitutil.Vec128) Result {
	p.stats.Searches++
	sig := key.Trunc(p.keyBits).OnesCount()
	group := p.groups[sig]
	p.stats.RowsActivated += uint64(len(group))
	p.stats.CellsActivated += uint64(len(group)) * uint64(p.keyBits)
	res := Result{Index: -1}
	for i, rec := range group {
		if rec.Key.Value == key.Trunc(p.keyBits) {
			res.Count++
			if !res.Found {
				res.Found, res.Index, res.Record = true, i, rec
			}
		}
	}
	return res
}

// Stats returns activity counters.
func (p *Precomputed) Stats() Stats { return p.stats }
