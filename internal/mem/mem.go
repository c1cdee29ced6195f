// Package mem models the dense memory array at the heart of a CA-RAM
// slice (§3.1): 2^R rows of C bits each, implementable as SRAM or
// embedded DRAM. The array knows nothing about records or hashing — it
// stores raw bits, charges access counts/cycles, and exposes both the
// row-oriented interface the match processors consume and the flat
// word-oriented RAM-mode interface of §3.2 (scratch-pad / paged memory
// reuse).
package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"caram/internal/bitutil"
)

// Technology selects the storage cell the array is built from. It
// drives timing defaults and, in the cost package, area and power.
type Technology int

// Supported storage technologies.
const (
	SRAM Technology = iota
	DRAM            // embedded DRAM (Morishita et al. style macro)
)

// String names the technology.
func (t Technology) String() string {
	switch t {
	case SRAM:
		return "SRAM"
	case DRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// Timing captures the two quantities §3.4 uses: the latency of one row
// access and nmem, the minimum number of cycles between back-to-back
// accesses (which bounds slice bandwidth as fclk/nmem).
type Timing struct {
	AccessCycles int // latency of one row access, in clock cycles
	MinInterval  int // nmem: min cycles between back-to-back accesses
}

// DefaultTiming returns the paper's working assumptions: single-cycle
// SRAM and a DRAM macro that needs at least 6 cycles per access (§4.3).
func DefaultTiming(t Technology) Timing {
	if t == DRAM {
		return Timing{AccessCycles: 6, MinInterval: 6}
	}
	return Timing{AccessCycles: 1, MinInterval: 1}
}

// Config describes an array.
type Config struct {
	Rows    int        // number of rows (buckets); need not be a power of two
	RowBits int        // C: bits per row
	Tech    Technology // storage technology; sets the timing (DefaultTiming)
}

// Stats accumulates the activity of an array. Cycles is the serial
// occupancy implied by MinInterval — the quantity that limits slice
// bandwidth.
type Stats struct {
	RowReads   uint64
	RowWrites  uint64
	WordReads  uint64
	WordWrites uint64
	Cycles     uint64
}

// counters is the internal atomic form of Stats: lock-free snapshot
// reads (ChargeRowReads) charge accesses concurrently with the
// port-locked write side, so every counter must be an atomic cell.
type counters struct {
	rowReads   atomic.Uint64
	rowWrites  atomic.Uint64
	wordReads  atomic.Uint64
	wordWrites atomic.Uint64
	cycles     atomic.Uint64
}

// Accesses returns the total number of row-granularity accesses.
func (s Stats) Accesses() uint64 { return s.RowReads + s.RowWrites }

// RowFaultInjector intercepts charged row fetches — the narrow
// interface a soft-error model (internal/fault) implements. OnRowFetch
// may mutate row in place (bit flips land in the stored bits, exactly
// as a particle strike corrupts a cell), and reports whether the fetch
// delivered data (false models a transient row-read failure: the
// stored bits are intact but this access returned nothing usable) plus
// extra latency cycles (a latency spike) charged to the array's cycle
// counter.
type RowFaultInjector interface {
	OnRowFetch(idx uint32, row []uint64) (ok bool, extraCycles int)
}

// Array is a behavioral memory array. Mutation is single-writer: a
// CA-RAM slice owns exactly one array and the subsystem serializes all
// writes behind the slice's port lock, matching the hardware's single
// row port. Reads come in two flavors:
//
//   - port-locked reads return aliases into the storage and are safe
//     only while the caller serializes against writers: FetchRow, the
//     one charged row read (through an installed fault injector), and
//     the uncharged PeekRow and PeekWords;
//   - lock-free reads run under a per-row seqlock — a version counter
//     that is odd while a writer is mutating the row and even once the
//     new contents are published: TryPeekRow copies a row out, or a
//     caller reads the PeekRow alias in place with atomic loads between
//     two RowVersion loads. What was read while the version stayed even
//     and unchanged is one published row, never a torn mix of two.
//
// Every write goes through the seqlock: record writes through
// BeginRowUpdate (charged) or BeginRowMaint (uncharged) and
// CommitRowUpdate (copy-mutate-publish on writer-owned scratch, every
// changed word stored atomically inside the odd window), corrections
// through PublishRow, and the RAM-mode writes of §3.2 through
// WriteWord, LoadRow and Clear. ReadWord is the RAM-mode read. Only
// an installed RowFaultInjector (internal/fault, the one fault model)
// changes bits behind them, as a defect would: FetchRow publishes the
// bits it flipped.
//
// InstallFaults and the seqlock write protocol itself remain
// single-writer: only reads are wait-free.
type Array struct {
	cfg      Config
	timing   Timing // DefaultTiming(cfg.Tech)
	rowWords int
	data     []uint64        // all rows, contiguous
	seq      []atomic.Uint32 // per-row seqlock: odd = mutating, even = published
	stats    counters
	inj      RowFaultInjector // nil = perfect memory (the fast path)

	updBuf   []uint64 // BeginRowUpdate scratch (writer-owned)
	fetchBuf []uint64 // FetchRow scratch when an injector is installed
	pending  int64    // row index+1 of the open update window, 0 = none
}

// New validates the configuration and allocates the array, zero-filled.
func New(cfg Config) (*Array, error) {
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("mem: Rows must be positive, got %d", cfg.Rows)
	}
	if cfg.RowBits <= 0 {
		return nil, fmt.Errorf("mem: RowBits must be positive, got %d", cfg.RowBits)
	}
	rw := bitutil.RowWords(cfg.RowBits)
	return &Array{
		cfg:      cfg,
		timing:   DefaultTiming(cfg.Tech),
		rowWords: rw,
		data:     make([]uint64, rw*cfg.Rows),
		seq:      make([]atomic.Uint32, cfg.Rows),
		updBuf:   make([]uint64, rw),
		fetchBuf: make([]uint64, rw),
	}, nil
}

// MustNew is New that panics on configuration error, for tests and
// examples with static configs.
func MustNew(cfg Config) *Array {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// Timing returns the array's timing, its technology's DefaultTiming.
func (a *Array) Timing() Timing { return a.timing }

// Rows returns the number of rows.
func (a *Array) Rows() int { return a.cfg.Rows }

// RowBits returns C, the row width in bits.
func (a *Array) RowBits() int { return a.cfg.RowBits }

// SizeBits returns the total storage capacity in bits.
func (a *Array) SizeBits() int64 { return int64(a.cfg.Rows) * int64(a.cfg.RowBits) }

// InstallFaults attaches a fault injector to the array's fetch path
// (FetchRow). nil detaches it. With no injector installed FetchRow is
// a charged alias of the row behind one predictable nil-check branch,
// so the lookup hot path keeps its zero-allocation guarantee.
func (a *Array) InstallFaults(inj RowFaultInjector) { a.inj = inj }

// FaultsInstalled reports whether a fault injector is attached — stored
// bits may then change outside any write the owner issued.
func (a *Array) FaultsInstalled() bool { return a.inj != nil }

// FetchRow is the array's one charged row read: it charges a read
// access, then gives an installed injector the chance to corrupt
// the row, fail the fetch, or stretch its latency. ok=false is a
// transient row-read error — the storage is intact, but this access
// delivered nothing usable and the caller must retry or skip.
//
// Without an injector the returned slice aliases the array's storage
// (zero-copy hot path). With one installed, the injector corrupts a
// fetch-scratch copy and any flipped bits are published back into
// storage through the row's seqlock window — the stored bits end up
// corrupted exactly as before, but lock-free snapshot readers never
// observe a half-applied strike. Port-locked path either way.
func (a *Array) FetchRow(idx uint32) ([]uint64, bool) {
	a.stats.rowReads.Add(1)
	a.stats.cycles.Add(uint64(a.timing.MinInterval))
	row := a.row(idx)
	if a.inj == nil {
		return row, true
	}
	copy(a.fetchBuf, row)
	ok, extra := a.inj.OnRowFetch(idx, a.fetchBuf)
	a.stats.cycles.Add(uint64(extra))
	for w := range row {
		if a.fetchBuf[w] != row[w] {
			a.publishRow(idx, a.fetchBuf)
			break
		}
	}
	return a.fetchBuf, ok
}

// PeekRow returns a row without charging an access: the port-locked
// reader's alias, and the row a lock-free Reader matches in place with
// atomic loads inside the row's seqlock window (RowVersion).
func (a *Array) PeekRow(idx uint32) []uint64 { return a.row(idx) }

// BeginRowUpdate opens a row's seqlock write window, charging a write
// access: the version counter goes odd and the live contents are
// copied into writer-owned scratch, which is returned for mutation.
// The caller mutates the scratch and then publishes it with
// CommitRowUpdate; lock-free snapshot readers that observe the odd
// version (or a version change) retry, so they never see the mutation
// half-applied. Only one window may be open at a time (single-writer),
// and the caller must already serialize against all other writers.
func (a *Array) BeginRowUpdate(idx uint32) []uint64 {
	a.stats.rowWrites.Add(1)
	a.stats.cycles.Add(uint64(a.timing.MinInterval))
	return a.beginRow(idx)
}

// BeginRowMaint is BeginRowUpdate without the write charge, for
// maintenance mutations the access model does not price (reach
// metadata updates, scrub restores — the paper's out-of-band host
// maintenance).
func (a *Array) BeginRowMaint(idx uint32) []uint64 {
	return a.beginRow(idx)
}

func (a *Array) beginRow(idx uint32) []uint64 {
	if a.pending != 0 {
		panic(fmt.Sprintf("mem: row update window already open on row %d", a.pending-1))
	}
	a.pending = int64(idx) + 1
	a.seq[idx].Add(1) // even -> odd: readers now retry
	copy(a.updBuf, a.row(idx))
	return a.updBuf
}

// CommitRowUpdate publishes the scratch returned by BeginRowUpdate /
// BeginRowMaint: every word the mutation changed is stored atomically
// (the single writer reads storage plainly to tell which — nobody else
// stores to it), then the version counter returns to even. A word left
// alone holds what both the old and the new row hold there, so storage
// is the whole new row before the version goes even, exactly as if every
// word had been stored. A snapshot read that raced the window sees a
// version change and retries; one that missed it entirely sees either
// the old or the new row, never a mix. A commit that changed nothing
// still moves the version twice.
func (a *Array) CommitRowUpdate(idx uint32) {
	if a.pending != int64(idx)+1 {
		panic(fmt.Sprintf("mem: CommitRowUpdate(%d) without matching begin", idx))
	}
	a.pending = 0
	row := a.row(idx)
	for w, v := range a.updBuf {
		if row[w] != v {
			atomic.StoreUint64(&row[w], v)
		}
	}
	a.seq[idx].Add(1) // odd -> even: published
}

// PublishRow atomically replaces a row's contents inside a seqlock
// window without charging an access — the in-place correction path of
// scrub-on-read error coding (the "write" is the memory controller's,
// not the application's). src must not alias the update scratch.
func (a *Array) PublishRow(idx uint32, src []uint64) {
	a.publishRow(idx, src)
}

func (a *Array) publishRow(idx uint32, src []uint64) {
	row := a.row(idx)
	a.seq[idx].Add(1)
	for w := range row {
		atomic.StoreUint64(&row[w], src[w])
	}
	a.seq[idx].Add(1)
}

// RowVersion returns a row's current seqlock version (odd while a
// write window is open): the two ends of an in-place read of PeekRow,
// and a probe for tests that pin the publication protocol.
func (a *Array) RowVersion(idx uint32) uint32 { return a.seq[idx].Load() }

// TryPeekRow copies one row into dst (len >= the row's word count)
// without taking any lock and without charging an access. It fails —
// returning false, copying garbage at worst — when a writer's seqlock
// window overlapped the copy; the caller retries or escalates to the
// port-locked path. A true return guarantees dst is a complete
// published row: the version was even before the copy and unchanged
// after it. A freeze's copy-on-write capture (caram.Freeze) reads rows
// this way.
func (a *Array) TryPeekRow(idx uint32, dst []uint64) bool {
	row := a.row(idx)
	v1 := a.seq[idx].Load()
	if v1&1 != 0 {
		return false
	}
	for w := range row {
		dst[w] = atomic.LoadUint64(&row[w])
	}
	return a.seq[idx].Load() == v1
}

// Prefetch hints, in one call, the lines a read of row idx fetches and
// the one holding also (the caller's per-row word, e.g. an occupancy
// mark): the row's seqlock version and, for a row of up to 4 lines
// (256 B), every line it spans — the whole row at once, as the paper's
// row access delivers it. A wider row gets its first line and its last
// (the aux field's): a bounded match reads only its leading slots and
// the aux word. It changes nothing.
func (a *Array) Prefetch(idx uint32, also unsafe.Pointer) {
	lo, hi, stride := a.hintRange(idx)
	prefetch(unsafe.Pointer(&a.seq[idx]), also, lo, hi, stride)
}

// hintRange is what Prefetch hints of row idx (see prefetch): the
// addresses of its first and last words and the step between hints — a
// line when the row is at most 256 B wide, else the whole distance.
func (a *Array) hintRange(idx uint32) (lo, hi, stride uintptr) {
	off := int(idx) * a.rowWords
	lo = uintptr(unsafe.Pointer(&a.data[off]))
	hi = uintptr(unsafe.Pointer(&a.data[off+a.rowWords-1]))
	stride = 64
	if a.rowWords > 32 {
		stride = hi - lo
	}
	return lo, hi, stride
}

// Prefetch hints the cache line holding p.
func Prefetch(p unsafe.Pointer) { prefetch(p, p, uintptr(p), uintptr(p), 64) }

// ChargeRowReads charges n row read accesses at once — what n FetchRow
// calls would add, in one atomic add per counter. Lock-free readers
// read rows uncharged and settle the bill per lookup or per batch.
func (a *Array) ChargeRowReads(n int) {
	if n > 0 {
		a.stats.rowReads.Add(uint64(n))
		a.stats.cycles.Add(uint64(n * a.timing.MinInterval))
	}
}

// RowWords returns the number of 64-bit words per row — the minimum
// buffer length for TryPeekRow.
func (a *Array) RowWords() int { return a.rowWords }

func (a *Array) row(idx uint32) []uint64 {
	if int(idx) >= a.cfg.Rows {
		panic(fmt.Sprintf("mem: row %d out of range (rows=%d)", idx, a.cfg.Rows))
	}
	off := int(idx) * a.rowWords
	return a.data[off : off+a.rowWords : off+a.rowWords]
}

// ReadWord implements RAM-mode word access: the array viewed as a flat
// scratch-pad of 64-bit words.
func (a *Array) ReadWord(addr int) uint64 {
	if addr < 0 || addr >= len(a.data) {
		panic(fmt.Sprintf("mem: word address %d out of range", addr))
	}
	a.stats.wordReads.Add(1)
	a.stats.cycles.Add(uint64(a.timing.MinInterval))
	return a.data[addr]
}

// WriteWord implements RAM-mode word write. The store goes through the
// owning row's seqlock window, so a bulk image load interleaved with
// lock-free snapshot readers yields per-row-consistent intermediate
// states.
func (a *Array) WriteWord(addr int, v uint64) {
	if addr < 0 || addr >= len(a.data) {
		panic(fmt.Sprintf("mem: word address %d out of range", addr))
	}
	a.stats.wordWrites.Add(1)
	a.stats.cycles.Add(uint64(a.timing.MinInterval))
	idx := uint32(addr / a.rowWords)
	a.seq[idx].Add(1)
	atomic.StoreUint64(&a.data[addr], v)
	a.seq[idx].Add(1)
}

// LoadRow is the row-granular form of a WriteWord sweep — the bulk
// image load of §3.2: it replaces one row with src (RowWords words),
// charging the same RowWords word writes, and publishes the row through
// a single seqlock window instead of one per word.
func (a *Array) LoadRow(idx uint32, src []uint64) {
	row := a.row(idx)
	a.stats.wordWrites.Add(uint64(len(row)))
	a.stats.cycles.Add(uint64(len(row) * a.timing.MinInterval))
	a.seq[idx].Add(1)
	for w := range row {
		atomic.StoreUint64(&row[w], src[w])
	}
	a.seq[idx].Add(1)
}

// Words returns the flat word count of the array (RAM-mode address
// space size).
func (a *Array) Words() int { return len(a.data) }

// PeekWords returns the whole array as one slice aliasing the storage,
// uncharged — PeekRow for every row at once, under the same rule: the
// caller serializes against writers and treats it as read-only.
func (a *Array) PeekWords() []uint64 { return a.data }

// Clear zeroes the entire array without charging accesses (models a
// bulk initialization/DMA fill, §3.2), row by row through the seqlock
// so concurrent snapshot readers see each row either full or empty.
func (a *Array) Clear() {
	for r := 0; r < a.cfg.Rows; r++ {
		idx := uint32(r)
		row := a.row(idx)
		a.seq[idx].Add(1)
		for w := range row {
			atomic.StoreUint64(&row[w], 0)
		}
		a.seq[idx].Add(1)
	}
}

// Stats returns a snapshot of accumulated activity. Counters are read
// atomically, so a snapshot taken under concurrent lock-free reads is
// monotone (never exceeds a later one) though not a single instant.
func (a *Array) Stats() Stats {
	return Stats{
		RowReads:   a.stats.rowReads.Load(),
		RowWrites:  a.stats.rowWrites.Load(),
		WordReads:  a.stats.wordReads.Load(),
		WordWrites: a.stats.wordWrites.Load(),
		Cycles:     a.stats.cycles.Load(),
	}
}

// ResetStats zeroes the activity counters.
func (a *Array) ResetStats() {
	a.stats.rowReads.Store(0)
	a.stats.rowWrites.Store(0)
	a.stats.wordReads.Store(0)
	a.stats.wordWrites.Store(0)
	a.stats.cycles.Store(0)
}
