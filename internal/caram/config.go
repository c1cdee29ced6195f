// Package caram implements the paper's primary contribution: the
// CA-RAM slice of Figure 3 — an index generator, a dense memory array
// of 2^R rows by C bits, and a bank of parallel match processors —
// together with the CAM-mode operations (search, insert, delete), the
// RAM-mode view, linear-probing overflow handling driven by the per-row
// auxiliary field, and the statistics (AMAL, load factor, overflow
// rates) the paper's evaluation is built on.
package caram

import (
	"errors"
	"fmt"

	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/mem"
)

// Errors returned by slice operations.
var (
	// ErrFull means no empty slot was found within the probe limit —
	// the record must go to a separate overflow area (§3.2) or the
	// design needs more capacity.
	ErrFull = errors.New("caram: bucket chain full within probe limit")
	// ErrNotFound is returned by Delete for absent keys.
	ErrNotFound = errors.New("caram: record not found")
	// ErrExists is returned by Insert when the exact key is already
	// stored and duplicates are not permitted.
	ErrExists = errors.New("caram: record already present")
	// ErrUnreadable means an insert met a row it could not read — not
	// quarantined, but failing past its retry — and stored nothing.
	ErrUnreadable = errors.New("caram: row unreadable")
)

// Config describes one CA-RAM slice.
type Config struct {
	// IndexBits is R; the array has 2^R rows (buckets).
	IndexBits int
	// TotalRows, when positive, overrides the power-of-two row count —
	// needed for vertically-arranged engines whose slice count is not a
	// power of two (e.g. Table 3's five-slice design B). The index
	// generator's output is reduced modulo TotalRows, so the generator
	// should produce many more bits than log2(TotalRows) to keep the
	// modulo bias negligible.
	TotalRows int
	// RowBits is C, the row width in bits.
	RowBits int
	// KeyBits is N, the search key width (1..128).
	KeyBits int
	// DataBits is the per-record data field width (0..128). Storing
	// data with the key eliminates the separate data-memory access.
	DataBits int
	// Ternary enables stored-key don't-care masks (2 bits per symbol).
	Ternary bool
	// AuxBits sizes the per-row auxiliary field holding the overflow
	// reach counter. Defaults to 8.
	AuxBits int
	// Tech selects SRAM or DRAM for the array.
	Tech mem.Technology
	// ProbeLimit bounds linear probing (number of buckets examined
	// beyond the home bucket). 0 means up to Rows-1, i.e. unlimited;
	// NoProbing disables spilling entirely, so records that do not fit
	// in their home bucket return ErrFull for redirection to a separate
	// overflow area (§4.3).
	ProbeLimit int
	// Index is the index generator; its Bits() must equal IndexBits.
	Index hash.IndexGenerator
	// ECC enables per-row error coding at construction: a SECDED-style
	// check word per row verified on every charged fetch, single-bit
	// correction, quarantine of uncorrectable rows, and scrub recovery
	// (see ecc.go). EnableECC is the post-load form for slices built
	// from an image.
	ECC bool
	// AllowDuplicates lets Insert store a key its bucket chain already
	// holds, for multi-value databases. (Duplicating a ternary record
	// into each of its homes is Place's job, not this.)
	AllowDuplicates bool
}

// Validate checks the configuration, returning a descriptive error.
func (c Config) Validate() error {
	if c.Index == nil {
		return errors.New("caram: Index generator is required")
	}
	if c.TotalRows > 0 {
		if c.TotalRows < 2 {
			return fmt.Errorf("caram: TotalRows %d too small", c.TotalRows)
		}
		if got := 1 << uint(c.Index.Bits()); got < c.TotalRows {
			return fmt.Errorf("caram: index generator range %d below TotalRows %d", got, c.TotalRows)
		}
	} else {
		if c.IndexBits < 1 || c.IndexBits > 30 {
			return fmt.Errorf("caram: IndexBits %d outside [1,30]", c.IndexBits)
		}
		if c.Index.Bits() != c.IndexBits {
			return fmt.Errorf("caram: index generator produces %d bits, config wants %d",
				c.Index.Bits(), c.IndexBits)
		}
	}
	if c.ProbeLimit < 0 && c.ProbeLimit != NoProbing {
		return fmt.Errorf("caram: ProbeLimit %d negative", c.ProbeLimit)
	}
	return c.layout().Validate()
}

// layout derives the row layout from the config.
func (c Config) layout() match.Layout {
	aux := c.AuxBits
	if aux == 0 {
		aux = 8
	}
	return match.Layout{
		RowBits:  c.RowBits,
		KeyBits:  c.KeyBits,
		DataBits: c.DataBits,
		Ternary:  c.Ternary,
		AuxBits:  aux,
	}
}

// Rows returns the bucket count: TotalRows when set, else 2^R.
func (c Config) Rows() int {
	if c.TotalRows > 0 {
		return c.TotalRows
	}
	return 1 << uint(c.IndexBits)
}

// Slots returns S, the records per bucket.
func (c Config) Slots() int { return c.layout().Slots() }

// Capacity returns M*S, the total record capacity.
func (c Config) Capacity() int { return c.Rows() * c.Slots() }

// NoProbing, as Config.ProbeLimit, confines every record to its home
// bucket.
const NoProbing = -1

// probeLimit resolves the effective probe bound.
func (c Config) probeLimit() int {
	switch c.ProbeLimit {
	case 0:
		return c.Rows() - 1
	case NoProbing:
		return 0
	default:
		return c.ProbeLimit
	}
}
