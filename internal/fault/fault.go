// Package fault is a deterministic soft-error model for the CA-RAM
// memory array. The paper's substrate is a dense SRAM/eDRAM macro
// (§3.1) — exactly the silicon where particle-strike bit flips,
// stuck-at cells, and transient row-read failures occur — so a
// reproduction that wants to behave like the hardware must be able to
// inject those faults and prove the layers above survive them.
//
// The Injector implements mem.RowFaultInjector: it rides the array's
// charged fetch path (mem.Array.FetchRow) and never touches reads the
// model treats as maintenance (PeekRow, scrub, serialization). Every
// draw comes from a seeded math/rand source, so a fixed seed replays
// the identical fault sequence — the property the chaos harness uses
// to reconcile injected faults against corrected/quarantined counters
// exactly.
//
// At most one fault event fires per fetch: a stuck cell that asserts
// (actually flips a stored bit) consumes the fetch's event, otherwise
// a single random draw selects among single flip, double flip,
// transient read error, latency spike, or nothing. One event per fetch
// keeps the per-row error state within what a SECDED-style code can
// adjudicate (a single flip is correctable, a double flip detectable),
// so the layers above can account for every injected bit without
// aliasing — three simultaneous flips would alias to a valid
// single-bit syndrome and silently miscorrect, which is a real failure
// mode of real ECC but would make exact reconciliation impossible.
package fault

import (
	"math/rand"
	"sync"
)

// StuckCell pins one bit of one row to a value: every fetch of the row
// re-asserts it (the cell re-reads wrong no matter what was written).
type StuckCell struct {
	Row   uint32
	Word  int  // word index within the row
	Bit   uint // bit index within the word (0..63)
	Value uint // 0 or 1
}

// Config describes the fault mix. Probabilities are per charged fetch
// and partition one random draw: PSingle+PDouble+PReadErr+PSpike must
// not exceed 1.
type Config struct {
	Seed     int64
	PSingle  float64     // single-bit flip (SECDED-correctable)
	PDouble  float64     // double-bit flip (detectable, uncorrectable)
	PReadErr float64     // transient row-read failure (storage intact)
	PSpike   float64     // latency spike of spikeCycles
	Stuck    []StuckCell // permanent stuck-at cells
}

// spikeCycles is the extra latency a spike charges to the array's cycle
// counter.
const spikeCycles = 32

// Counts is the injector's ledger: every fault it has caused, by kind.
// BitsFlipped counts stored bits actually inverted (a stuck-cell
// assertion that matches the stored value flips nothing and is not an
// event).
type Counts struct {
	Fetches      uint64 // fetches observed while enabled
	SingleFlips  uint64
	DoubleFlips  uint64
	StuckAsserts uint64 // stuck-cell assertions that flipped a bit
	BitsFlipped  uint64 // singles + 2*doubles + stuck asserts
	ReadErrors   uint64 // fetches failed transiently
	Spikes       uint64
}

// Injector is a seeded, reproducible fault source implementing
// mem.RowFaultInjector. It is safe for concurrent use (the engine lock
// already serializes fetches of one array; the mutex makes the counts
// and the rand source safe when one injector is shared or polled from
// a monitor goroutine).
type Injector struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	enabled bool
	counts  Counts
}

// New builds an injector from the config, disabled. Call Enable to
// start injecting.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Enable turns injection on.
func (in *Injector) Enable() {
	in.mu.Lock()
	in.enabled = true
	in.mu.Unlock()
}

// Disable turns injection off; fetches pass through untouched. The
// ledger is preserved for reconciliation.
func (in *Injector) Disable() {
	in.mu.Lock()
	in.enabled = false
	in.mu.Unlock()
}

// Counts returns a snapshot of the fault ledger.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// OnRowFetch implements mem.RowFaultInjector.
func (in *Injector) OnRowFetch(idx uint32, row []uint64) (bool, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.enabled {
		return true, 0
	}
	in.counts.Fetches++
	// A stuck cell re-reads wrong on every fetch. The first one that
	// actually inverts a stored bit is this fetch's one fault event.
	for _, sc := range in.cfg.Stuck {
		if sc.Row != idx || sc.Word < 0 || sc.Word >= len(row) || sc.Bit > 63 {
			continue
		}
		old := row[sc.Word]
		forced := old&^(1<<sc.Bit) | uint64(sc.Value&1)<<sc.Bit
		if forced != old {
			row[sc.Word] = forced
			in.counts.StuckAsserts++
			in.counts.BitsFlipped++
			return true, 0
		}
	}
	nbits := len(row) * 64
	if nbits < 2 {
		return true, 0
	}
	r := in.rng.Float64()
	p := in.cfg.PSingle
	if r < p {
		in.flip(row, in.rng.Intn(nbits))
		in.counts.SingleFlips++
		in.counts.BitsFlipped++
		return true, 0
	}
	p += in.cfg.PDouble
	if r < p {
		b1 := in.rng.Intn(nbits)
		b2 := in.rng.Intn(nbits - 1)
		if b2 >= b1 {
			b2++ // distinct bits, uniform over pairs
		}
		in.flip(row, b1)
		in.flip(row, b2)
		in.counts.DoubleFlips++
		in.counts.BitsFlipped += 2
		return true, 0
	}
	p += in.cfg.PReadErr
	if r < p {
		in.counts.ReadErrors++
		return false, 0
	}
	p += in.cfg.PSpike
	if r < p {
		in.counts.Spikes++
		return true, spikeCycles
	}
	return true, 0
}

// flip inverts bit b of the row (b indexes the row's flat bit space).
func (in *Injector) flip(row []uint64, b int) {
	row[b>>6] ^= 1 << uint(b&63)
}
