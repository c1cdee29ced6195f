package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"caram/internal/caram"
	"caram/internal/subsystem"
)

// RecoverResult describes what boot recovery found and rebuilt.
type RecoverResult struct {
	// Engines is the recovered roster in deterministic order: snapshot
	// order, then bootstrap engines absent from the snapshot, then
	// engines created by replayed records, minus replayed drops (with
	// dropped bootstrap engines re-added empty at the end — flag
	// engines are guaranteed present at every boot).
	Engines []*subsystem.Engine
	// RosterLSN seeds Concurrent.SetJournal's roster replay gate.
	RosterLSN uint64
	// SnapshotLSN is the bound of the snapshot recovery anchored on
	// (0 when none existed).
	SnapshotLSN uint64
	// LastLSN is the highest LSN observed; the reopened log continues
	// from LastLSN+1.
	LastLSN uint64
	// Replayed counts log records applied over the snapshot. Zero
	// after a graceful shutdown — the property the shutdown test and
	// the crash harness's SIGTERM leg assert.
	Replayed int
	// Dropped counts the replayed records an engine refused: an insert
	// that failed for any reason, a delete that failed for any reason but
	// caram.ErrNotFound (a logged delete that found nothing is the
	// documented no-op). They are counted in Replayed too — the record
	// was read and its LSN consumed — so a boot that lost data no longer
	// looks like one that did not. DroppedFirst holds the first few
	// (maxDroppedKept) engine errors, each prefixed with the record's LSN,
	// engine and operation.
	Dropped      int
	DroppedFirst []error
	// TruncatedBytes is how much torn tail was cut from the final
	// segment (0 on a clean log).
	TruncatedBytes int
	// CleanShutdown reports that the log ended with a seal record.
	CleanShutdown bool
}

// maxDroppedKept bounds RecoverResult.DroppedFirst.
const maxDroppedKept = 8

// errTorn marks a frame that cannot be trusted: short, CRC-mismatched,
// or undecodable. In the final segment it means "the tail ends here";
// anywhere else it is corruption of fsynced history and recovery
// refuses to guess.
var errTorn = errors.New("wal: torn record")

// errGap marks a log that skips LSNs the anchoring snapshot does not
// cover: booting across them would ack writes that are gone.
var errGap = errors.New("wal: LSN gap")

// Recover rebuilds state from a data directory and opens the log for
// appending. bootstrap is the flag-configured roster of empty engines:
// snapshot images load into a bootstrap engine when the geometry
// matches (preserving any attached fault injector); otherwise the
// engine is rebuilt from the snapshot's own config. The WAL tail is
// then replayed in LSN order through the same Insert/Delete/typed-
// construction paths live traffic uses, gated per engine by
// AppliedLSN and for CREATE/DROP by RosterLSN, so nothing applies
// twice. The snapshot's bound and every record after it must chain
// without a gap (errGap). A torn or corrupt record at the tail of the
// final segment is truncated, never replayed; the same damage in an
// earlier (sealed, fsynced) segment, or with an intact record behind it,
// is a hard error.
func Recover(dir string, bootstrap []*subsystem.Engine, opts Options) (*Log, *RecoverResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}

	st := &replayState{
		m:   make(map[string]*subsystem.Engine),
		res: &RecoverResult{},
		br:  bufio.NewReaderSize(nil, snapChunk),
	}
	for _, e := range bootstrap {
		st.m[e.Name] = e
		st.order = append(st.order, e.Name)
	}

	if err := sweepSnapshotTemps(dir); err != nil {
		return nil, nil, err
	}
	if err := st.loadLatestSnapshot(dir); err != nil {
		return nil, nil, err
	}

	segs, err := listFiles(dir, "wal-", ".seg")
	if err != nil {
		return nil, nil, err
	}
	for i, seg := range segs {
		final := i == len(segs)-1
		if err := st.replaySegment(filepath.Join(dir, seg.name), seg.lsn, final); err != nil {
			return nil, nil, err
		}
	}

	// Flag engines are guaranteed present at every boot: one dropped in
	// a previous life comes back empty (its durable history ended at
	// the drop), new flag engines appear empty.
	for _, e := range bootstrap {
		if _, ok := st.m[e.Name]; !ok {
			e.Main.Clear()
			e.AppliedLSN = st.lastLSN
			st.m[e.Name] = e
			st.order = append(st.order, e.Name)
		}
	}
	for _, name := range st.order {
		st.res.Engines = append(st.res.Engines, st.m[name])
	}
	st.res.RosterLSN = st.rosterLSN
	st.res.LastLSN = st.lastLSN
	st.res.CleanShutdown = st.sealed

	l := &Log{
		dir:     dir,
		opts:    opts,
		nextLSN: st.lastLSN + 1,
		written: st.lastLSN,
		durable: st.lastLSN,
		snapLSN: st.res.SnapshotLSN,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	l.snapW, l.snapSum = bufio.NewWriterSize(nil, snapChunk), crc32.New(castagnoli)
	// A crash just after a segment roll can leave a record-free
	// segment already named for lastLSN+1; recovery proved it holds no
	// replayable record (otherwise lastLSN would be higher), so the
	// fresh active segment replaces it.
	if err := os.Remove(filepath.Join(dir, segmentName(st.lastLSN+1))); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	remaining, err := listFiles(dir, "wal-", ".seg")
	if err != nil {
		return nil, nil, err
	}
	l.segments.Store(int64(len(remaining)))
	l.ioMu.Lock()
	err = l.openSegmentLocked(st.lastLSN + 1)
	l.ioMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	l.bg.Add(1)
	go l.syncer()
	return l, st.res, nil
}

// replayState threads the roster through snapshot overlay and segment
// replay. br is the one snapChunk buffer every file recovery reads —
// each snapshot pass, each segment — goes through. run queues up to
// caram.BatchChunk consecutive inserts and deletes of one engine, with
// their LSNs, for the touch stage the live write path runs them through
// (subsystem.Engine.Touch).
type replayState struct {
	m         map[string]*subsystem.Engine
	order     []string
	rosterLSN uint64
	lastLSN   uint64 // the last record read, queued ones included
	sealed    bool
	res       *RecoverResult
	br        *bufio.Reader

	run    [caram.BatchChunk]subsystem.JournalEntry
	runLSN [caram.BatchChunk]uint64
	runN   int
}

// sweepSnapshotTemps deletes the snap-*.snap.tmp files a crash
// mid-snapshot (or a failed rename) left behind: table-sized, never
// valid, and invisible to the snapshot listing and pruneLocked.
func sweepSnapshotTemps(dir string) error {
	tmps, err := listFiles(dir, "snap-", ".snap"+snapTmpSuffix)
	if err != nil {
		return err
	}
	for _, tmp := range tmps {
		if err := os.Remove(filepath.Join(dir, tmp.name)); err != nil {
			return err
		}
	}
	return nil
}

// loadLatestSnapshot anchors recovery on the newest snapshot that
// verifies, if any. It is verify-then-load over the open file: pass 1
// walks the whole structure and CRCs every byte without touching an
// engine, so an invalid snapshot is skipped (an older valid one still
// anchors recovery) and never deleted — it is evidence; only then does
// pass 2 decode into the engines, and whatever fails there, the CRC
// included, is a hard error, because engines are no longer untouched.
func (st *replayState) loadLatestSnapshot(dir string) error {
	snaps, err := listFiles(dir, "snap-", ".snap")
	if err != nil {
		return err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		f, err := os.Open(filepath.Join(dir, snaps[i].name))
		if err != nil {
			return err
		}
		_, _, err = readSnapshot(f, st.br, nil)
		if err == nil {
			err = st.overlay(f)
		} else if errors.Is(err, errBadSnapshot) {
			f.Close()
			continue
		}
		f.Close()
		return err
	}
	return nil
}

// overlay loads a verified snapshot over the bootstrap roster, each
// image into the bootstrap engine of its name when the geometry matches
// (preserving any attached fault injector), otherwise into an engine
// built from the snapshot's own config. The snapshot's engine order
// wins (bootstrap-only engines keep their relative order after it).
func (st *replayState) overlay(f *os.File) error {
	order := make([]string, 0, len(st.order))
	seen := make(map[string]bool, len(st.order))
	bound, rosterLSN, err := readSnapshot(f, st.br, func(h subsystem.EngineImage, words int) (*subsystem.Engine, error) {
		eng := st.m[h.Name]
		if eng == nil || eng.Main.Array().Words() != words {
			var err error
			if eng, err = subsystem.NewTypedEngine(h.Name, h.Type, h.Conf); err != nil {
				return nil, err
			}
		}
		eng.AppliedLSN = h.AppliedLSN
		st.m[h.Name] = eng
		order = append(order, h.Name)
		seen[h.Name] = true
		return eng, nil
	})
	if err != nil {
		return fmt.Errorf("wal: snapshot %s verified but did not load: %w", f.Name(), err)
	}
	for _, name := range st.order {
		if !seen[name] {
			order = append(order, name)
		}
	}
	st.order = order
	st.res.SnapshotLSN, st.rosterLSN, st.lastLSN = bound, rosterLSN, bound
	return nil
}

// intern returns the roster's own string for an engine name read from
// a record, so replaying a record for a known engine allocates nothing.
func (st *replayState) intern(name []byte) string {
	if eng := st.m[string(name)]; eng != nil {
		return eng.Name
	}
	return string(name)
}

// replaySegment applies one segment's records, streamed through st.br
// (it replaces the ReadFile of the whole segment). final marks the last
// segment on disk — the only place torn records are legal; they are
// truncated away so the next boot sees a clean tail. What counts as
// torn is decided against the size Stat reported, so offsets and
// TruncatedBytes are those of the whole-file reader; a read that fails
// inside that size is an I/O error, never a torn tail.
func (st *replayState) replaySegment(path string, wantStart uint64, final bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	defer st.drain() // a segment's records are all applied by the time it is left
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	st.br.Reset(f)
	hdr, err := st.br.Peek(16)
	if err != nil && err != io.EOF {
		return err
	}
	if len(hdr) < 16 || string(hdr[:8]) != segMagic ||
		binary.LittleEndian.Uint64(hdr[8:]) != wantStart {
		if final {
			// A crash during segment creation can leave a torn header;
			// nothing in this file was ever acknowledged as written.
			if err := st.resync(f, path, 0, size); err != nil {
				return err
			}
			st.res.TruncatedBytes += int(size)
			return os.Remove(path)
		}
		return fmt.Errorf("wal: segment %s: bad header", path)
	}
	if wantStart > st.lastLSN+1 {
		return fmt.Errorf("%w: LSNs %d-%d missing before segment %s", errGap, st.lastLSN+1, wantStart-1, path)
	}
	st.br.Discard(16) //nolint:errcheck // peeked, so buffered
	for off := int64(16); off < size; {
		payload, err := nextFrame(st.br, size-off)
		if err != nil {
			return fmt.Errorf("wal: segment %s: offset %d: %w", path, off, err)
		}
		lsn, e, name, bad := decodeRecord(payload)
		if payload == nil { // no trustworthy frame here at all
			bad = errTorn
		}
		if bad != nil {
			if !final {
				return fmt.Errorf("wal: segment %s: corrupt record at offset %d: %w", path, off, bad)
			}
			if err := st.resync(f, path, off, size); err != nil {
				return err
			}
			st.res.TruncatedBytes += int(size - off)
			return os.Truncate(path, off)
		}
		if lsn > st.lastLSN+1 {
			return fmt.Errorf("%w: LSNs %d-%d missing before offset %d of segment %s", errGap, st.lastLSN+1, lsn-1, off, path)
		}
		e.Engine = st.intern(name)
		if err := st.take(lsn, &e); err != nil {
			return fmt.Errorf("wal: segment %s: lsn %d: %w", path, lsn, err)
		}
		n := frameHeader + len(payload)
		st.br.Discard(n) //nolint:errcheck // peeked, so buffered
		off += int64(n)
	}
	return nil
}

// resync tells a torn tail from rot at the final segment's first bad
// byte, off: it looks at every later offset, to the end of the file, for
// a CRC-clean record with an LSN above the last one applied. A torn tail
// has nothing written behind it; a record there was written after the
// damage and may have been acked, so the boot is refused and the file is
// left as it is, as evidence.
func (st *replayState) resync(f *os.File, path string, off, size int64) error {
	st.br.Reset(io.NewSectionReader(f, off+1, max(size-off-1, 0)))
	for at := off + 1; at < size; at++ {
		p, err := nextFrame(st.br, size-at)
		if err != nil {
			return fmt.Errorf("wal: segment %s: offset %d: %w", path, at, err)
		}
		if lsn, _, _, bad := decodeRecord(p); bad == nil && lsn > st.lastLSN {
			return fmt.Errorf("wal: segment %s: corrupt at offset %d, yet record %d is intact at offset %d: %w", path, off, lsn, at, errTorn)
		}
		st.br.Discard(1) //nolint:errcheck // at < size: the byte is there
	}
	return nil
}

// nextFrame validates the frame at br's position without consuming it
// and returns its payload — a view into br's buffer, valid until the
// next read — or nil when the frame is torn, oversized, or fails its
// CRC. avail is how much of the file lies ahead. It replaces frameAt's
// index into the whole segment.
func nextFrame(br *bufio.Reader, avail int64) ([]byte, error) {
	if avail < frameHeader {
		return nil, nil
	}
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxRecordBytes || avail-frameHeader < int64(n) {
		return nil, nil
	}
	frame, err := br.Peek(frameHeader + n)
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(frame[frameHeader:], castagnoli) != crc {
		return nil, nil
	}
	return frame[frameHeader:], nil
}

// take replays one record in LSN order: an insert or a delete joins the
// run of its engine's writes, which is applied through the touch stage
// once it holds caram.BatchChunk of them; any other record, or a write
// to another engine, applies the run first.
func (st *replayState) take(lsn uint64, e *subsystem.JournalEntry) error {
	st.lastLSN = max(st.lastLSN, lsn)
	if e.Op != subsystem.JournalInsert && e.Op != subsystem.JournalDelete {
		st.drain()
		return st.apply(lsn, *e)
	}
	if st.runN == len(st.run) || (st.runN > 0 && e.Engine != st.run[0].Engine) {
		st.drain()
	}
	st.run[st.runN], st.runLSN[st.runN] = *e, lsn
	st.runN++
	st.sealed = false
	return nil
}

// drain applies the queued run: the touch stage over the records the
// engine's replay gate lets through, then each record through apply, in
// order. Inserts and deletes never fail apply — a record the engine
// refuses is counted as dropped.
func (st *replayState) drain() {
	run, lsns := st.run[:st.runN], st.runLSN[:st.runN]
	st.runN = 0
	if len(run) == 0 {
		return
	}
	if eng := st.m[run[0].Engine]; eng != nil && len(run) > 1 {
		from, _ := slices.BinarySearch(lsns, eng.AppliedLSN+1)
		eng.Touch(run[from:])
	}
	for i := range run {
		st.apply(lsns[i], run[i]) //nolint:errcheck // nil for inserts and deletes
	}
}

// apply replays one record through the idempotence gates.
func (st *replayState) apply(lsn uint64, e subsystem.JournalEntry) error {
	if lsn > st.lastLSN {
		st.lastLSN = lsn
	}
	st.sealed = e.Op == subsystem.JournalSeal
	switch e.Op {
	case subsystem.JournalSeal:
		// Clean-shutdown marker; nothing to apply.
	case subsystem.JournalCreate:
		if lsn <= st.rosterLSN {
			return nil
		}
		st.rosterLSN = lsn
		if _, dup := st.m[e.Engine]; dup {
			return fmt.Errorf("wal: create of existing engine %q", e.Engine)
		}
		eng, err := subsystem.NewTypedEngine(e.Engine, e.Type, e.Conf)
		if err != nil {
			return err
		}
		eng.AppliedLSN = lsn
		st.m[e.Engine] = eng
		st.order = append(st.order, e.Engine)
		st.res.Replayed++
	case subsystem.JournalDrop:
		if lsn <= st.rosterLSN {
			return nil
		}
		st.rosterLSN = lsn
		delete(st.m, e.Engine)
		for i, n := range st.order {
			if n == e.Engine {
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
		st.res.Replayed++
	case subsystem.JournalInsert:
		eng := st.m[e.Engine]
		if eng == nil || lsn <= eng.AppliedLSN {
			return nil
		}
		// An insert error does not stop the boot: the record was applied
		// (and possibly acked) in the previous life, and a replay failure
		// can only come from an engine that differs from the one that took
		// it — a smaller bootstrap geometry, a fault injector — where
		// losing one record beats refusing to boot. It is counted, though.
		st.dropped(lsn, e.Engine, "insert", eng.Insert(e.Rec, nil))
		eng.AppliedLSN = lsn
		st.res.Replayed++
	case subsystem.JournalDelete:
		eng := st.m[e.Engine]
		if eng == nil || lsn <= eng.AppliedLSN {
			return nil
		}
		// Deletes are logged before they apply, so a logged delete may
		// have found nothing: ErrNotFound replays as the same no-op.
		if err := eng.Delete(e.Key); !errors.Is(err, caram.ErrNotFound) {
			st.dropped(lsn, e.Engine, "delete", err)
		}
		eng.AppliedLSN = lsn
		st.res.Replayed++
	default:
		return fmt.Errorf("wal: unknown op %d", e.Op)
	}
	return nil
}

// dropped accounts a replayed record its engine refused with err (nil:
// it did not).
func (st *replayState) dropped(lsn uint64, engine, op string, err error) {
	if err == nil {
		return
	}
	st.res.Dropped++
	if len(st.res.DroppedFirst) < maxDroppedKept {
		st.res.DroppedFirst = append(st.res.DroppedFirst, fmt.Errorf("lsn %d engine %s: %s: %w", lsn, engine, op, err))
	}
}
