// Package cam models the baseline the paper compares against:
// conventional content-addressable memory (binary CAM) and ternary CAM
// (§2.2). A search compares the key against every stored row in
// parallel and a priority encoder returns the lowest-index match, so
// physical order defines priority; for longest-prefix match the device
// is kept sorted by decreasing prefix length, maintained incrementally
// with the one-move-per-group update algorithm in the style of Shah and
// Gupta's TCAM update work.
//
// The model also accounts the activity that makes CAM expensive: every
// search activates all searchlines and matchlines (O(w+n) lines, O(w·n)
// match transistors), which the cost package turns into power.
package cam

import (
	"errors"
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/match"
)

// Errors returned by device operations.
var (
	// ErrFull means the device has no free entry.
	ErrFull = errors.New("cam: device full")
	// ErrNotFound is returned by Delete for absent keys.
	ErrNotFound = errors.New("cam: entry not found")
)

// Kind distinguishes binary CAM from ternary CAM.
type Kind int

// Device kinds.
const (
	Binary Kind = iota
	Ternary
)

// String names the kind.
func (k Kind) String() string {
	if k == Binary {
		return "CAM"
	}
	return "TCAM"
}

// Config describes a CAM device.
type Config struct {
	Entries int  // w: number of rows
	KeyBits int  // n: bits per stored key
	Kind    Kind // Binary rejects masked keys
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("cam: Entries %d must be positive", c.Entries)
	}
	if c.KeyBits < 1 || c.KeyBits > 128 {
		return fmt.Errorf("cam: KeyBits %d outside [1,128]", c.KeyBits)
	}
	return nil
}

// Stats accumulates device activity.
type Stats struct {
	Searches       uint64
	RowsActivated  uint64 // w per search: every matchline precharges
	CellsActivated uint64 // w*n per search: every match transistor
	Inserts        uint64
	InsertMoves    uint64 // entry relocations performed by ordered insert
	Deletes        uint64
	DeleteMoves    uint64
}

// Device is a behavioral CAM/TCAM.
type Device struct {
	cfg     Config
	entries []match.Record // [0, total) valid, descending priority groups
	prio    []int          // priority of each stored entry
	byPrio  []int          // count of entries per priority value
	total   int
	stats   Stats
}

// New builds a device.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		cfg:     cfg,
		entries: make([]match.Record, cfg.Entries),
		prio:    make([]int, cfg.Entries),
		byPrio:  make([]int, 130), // priorities 0..129 (CareCount of 128-bit key + margin)
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the number of stored entries.
func (d *Device) Len() int { return d.total }

// Capacity returns w.
func (d *Device) Capacity() int { return d.cfg.Entries }

// Result is the outcome of one search.
type Result struct {
	Found  bool
	Index  int // winning row (lowest index = highest priority)
	Record match.Record
	Count  int // total matching rows (multi-match condition)
}

// Search compares the key against every stored row and priority-encodes
// the result. The search key may carry don't-care bits. Activity is
// charged for the full device, matching hardware behavior.
func (d *Device) Search(search bitutil.Ternary) Result {
	d.stats.Searches++
	d.stats.RowsActivated += uint64(d.cfg.Entries)
	d.stats.CellsActivated += uint64(d.cfg.Entries) * uint64(d.cfg.KeyBits)
	res := Result{Index: -1}
	for i := 0; i < d.total; i++ {
		if d.entries[i].Key.Matches(search) {
			res.Count++
			if !res.Found {
				res.Found = true
				res.Index = i
				res.Record = d.entries[i]
			}
		}
	}
	return res
}

// start returns the index of the first entry of priority group p, i.e.
// the number of entries with priority greater than p.
func (d *Device) start(p int) int {
	s := 0
	for r := p + 1; r < len(d.byPrio); r++ {
		s += d.byPrio[r]
	}
	return s
}

// Insert stores a record with the given priority (higher priority wins
// on multi-match; for LPM use the prefix length). The device keeps
// priority groups contiguous and descending; opening a slot costs at
// most one entry move per lower-priority group, the key property of
// CAM update algorithms.
func (d *Device) Insert(rec match.Record, priority int) error {
	if d.total >= d.cfg.Entries {
		return ErrFull
	}
	if priority < 0 || priority >= len(d.byPrio) {
		return fmt.Errorf("cam: priority %d out of range", priority)
	}
	if d.cfg.Kind == Binary && !rec.Key.Mask.IsZero() {
		return fmt.Errorf("cam: masked key in a binary CAM")
	}
	rec.Key = rec.Key.Normalize()
	hole := d.total
	for p := 0; p < priority; p++ {
		if d.byPrio[p] == 0 {
			continue
		}
		first := d.start(p)
		d.entries[hole], d.prio[hole] = d.entries[first], d.prio[first]
		d.stats.InsertMoves++
		hole = first
	}
	d.entries[hole], d.prio[hole] = rec, priority
	d.byPrio[priority]++
	d.total++
	d.stats.Inserts++
	return nil
}

// Append stores a record at the lowest priority — sufficient for
// exact-match databases where multi-match cannot occur.
func (d *Device) Append(rec match.Record) error { return d.Insert(rec, 0) }

// Delete removes the entry whose key equals key exactly (value and
// mask), compacting with one move per affected priority group.
func (d *Device) Delete(key bitutil.Ternary) error {
	key = key.Normalize()
	idx := -1
	for i := 0; i < d.total; i++ {
		if d.entries[i].Key.Equal(key) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ErrNotFound
	}
	p := d.prio[idx]
	last := d.start(p) + d.byPrio[p] - 1
	if last != idx {
		d.entries[idx], d.prio[idx] = d.entries[last], d.prio[last]
		d.stats.DeleteMoves++
	}
	hole := last
	for q := p - 1; q >= 0; q-- {
		if d.byPrio[q] == 0 {
			continue
		}
		qLast := d.start(q) + d.byPrio[q] - 1
		d.entries[hole], d.prio[hole] = d.entries[qLast], d.prio[qLast]
		d.stats.DeleteMoves++
		hole = qLast
	}
	d.byPrio[p]--
	d.total--
	d.stats.Deletes++
	d.entries[d.total] = match.Record{}
	d.prio[d.total] = 0
	return nil
}

// Entry returns the stored record at a physical row, for inspection.
func (d *Device) Entry(i int) (match.Record, bool) {
	if i < 0 || i >= d.total {
		return match.Record{}, false
	}
	return d.entries[i], true
}

// Stats returns a snapshot of activity counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes activity counters.
func (d *Device) ResetStats() { d.stats = Stats{} }

// Verify checks the priority-ordering invariant: priorities are
// non-increasing along physical rows and group counts are consistent.
// It returns a description of the first violation, or "".
func (d *Device) Verify() string {
	for i := 1; i < d.total; i++ {
		if d.prio[i] > d.prio[i-1] {
			return fmt.Sprintf("priority inversion at row %d: %d after %d", i, d.prio[i], d.prio[i-1])
		}
	}
	counts := make([]int, len(d.byPrio))
	for i := 0; i < d.total; i++ {
		counts[d.prio[i]]++
	}
	for p := range counts {
		if counts[p] != d.byPrio[p] {
			return fmt.Sprintf("priority %d: counted %d, recorded %d", p, counts[p], d.byPrio[p])
		}
	}
	return ""
}
