package subsystem

import (
	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/match"
)

// Durability hook. The subsystem is fed from the insert side, so the
// mutation stream at the engine-lock boundary is the authoritative
// history of every table — the same observation that makes the §3.2
// shadow image the recovery source for scrub. A Journal (implemented
// by internal/wal) receives one entry per acknowledged mutation and
// per roster change; replay after a crash drives the same Insert /
// Delete / NewTypedEngine paths the live traffic did.
//
// Ordering contract: Append is called while the mutated engine's lock
// (or, for roster records, setMu) is held, immediately after the
// mutation applied. Per engine, LSN order therefore equals apply
// order, which is what makes the per-engine AppliedLSN gate sound
// during replay. Commit — the durability wait — happens outside the
// lock, so one connection's fsync never blocks another engine's
// writers (group commit).

// JournalOp enumerates the record types of the mutation journal.
type JournalOp uint8

const (
	// JournalInsert records one applied record placement (INSERT,
	// MINSERT, TINSERT — the engine stores the derived record, so
	// replay never needs the wire form).
	JournalInsert JournalOp = iota + 1
	// JournalDelete records one delete by exact (value, mask) key
	// (DELETE, MDELETE). Deletes are logged before they apply: a
	// logged delete that found nothing replays as the same no-op.
	JournalDelete
	// JournalCreate records CREATE ENGINE with its typed config.
	JournalCreate
	// JournalDrop records DROP ENGINE.
	JournalDrop
	// JournalSeal marks a clean shutdown. Never applied on replay; a
	// log whose last record is a seal needs no replay at all.
	JournalSeal
)

// JournalEntry is one logical mutation record. Fields beyond Op and
// Engine are op-specific; unused ones are zero.
type JournalEntry struct {
	Op     JournalOp
	Engine string
	Rec    match.Record    // JournalInsert: the record as stored
	Key    bitutil.Ternary // JournalDelete: the key removed
	Type   EngineType      // JournalCreate
	Conf   TypedConfig     // JournalCreate
}

// Journal is the durability sink the concurrency layer appends to.
// Append assigns and returns the record's LSN; Commit blocks until
// that LSN is durable under the journal's sync policy (it may return
// immediately for relaxed policies). Implementations must allow
// Append under an engine lock — it must never perform blocking I/O.
type Journal interface {
	Append(e JournalEntry) (lsn uint64, err error)
	Commit(lsn uint64) error
	LastLSN() uint64
}

// EngineImage is one engine's snapshot: geometry and the logical row
// image frozen at AppliedLSN (quarantined rows contribute their shadow
// contents — the authoritative copy). AppliedLSN gates replay: records
// with lsn <= AppliedLSN are already reflected in Rows and must be
// skipped.
type EngineImage struct {
	Name       string
	Type       EngineType
	Conf       TypedConfig
	AppliedLSN uint64
	Rows       *caram.Freeze
}

// Image is a recovery-consistent snapshot of the whole roster.
// RosterLSN gates roster replay: CREATE/DROP records with
// lsn <= RosterLSN are already reflected in Engines.
type Image struct {
	RosterLSN uint64
	Engines   []EngineImage
}

// SetJournal attaches the durability sink. rosterLSN seeds the roster
// replay gate (the last CREATE/DROP LSN already reflected in the
// current roster — zero on a fresh start, the recovered value after
// boot recovery). Like Instrument it is part of construction: call it
// before the Concurrent is shared across goroutines.
func (c *Concurrent) SetJournal(j Journal, rosterLSN uint64) *Concurrent {
	c.jr = j
	c.rosterLSN = rosterLSN
	return c
}

// SnapshotImage freezes a recovery-consistent image of every engine
// into img. Under setMu (so RosterLSN and the engine list agree) and
// each engine's read lock it opens the engine's freeze and reads its
// AppliedLSN: all a snapshot holds a writer for. The caller streams each Rows with no lock held and releases each
// on every path; one image may be open at a time. Per-engine AppliedLSN
// values make the fuzziness across engines safe: a record appended
// before its engine was frozen is in its image and gated out of replay.
func (c *Concurrent) SnapshotImage(img *Image) {
	c.setMu.Lock()
	defer c.setMu.Unlock()
	set := c.set.Load()
	img.RosterLSN = c.rosterLSN
	img.Engines = make([]EngineImage, 0, len(set.order))
	for _, name := range set.order {
		g := set.m[name]
		g.mu.RLock()
		cfg := g.e.Main.Config()
		ei := EngineImage{Name: name, Type: g.e.Type, AppliedLSN: g.e.AppliedLSN, Rows: g.e.Main.Freeze(),
			Conf: TypedConfig{IndexBits: cfg.IndexBits, Slots: cfg.Slots(), ECC: cfg.ECC}}
		g.mu.RUnlock()
		img.Engines = append(img.Engines, ei)
	}
}
