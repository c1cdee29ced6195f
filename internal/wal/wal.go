// Package wal is the durability substrate: a segmented, CRC32C-framed
// write-ahead log over the subsystem's mutation stream, group-committed
// by a background syncer, plus point-in-time snapshots of the
// insert-side shadow image and boot recovery that replays the log tail
// over the latest snapshot. The design follows the paper's §3.2
// observation the ECC layer already exploits: the host-resident
// logical image is the authoritative copy of every table — here it is
// made to survive the process.
//
// Layout of a data directory:
//
//	wal-<startLSN %016x>.seg   log segments, last one active
//	snap-<boundLSN %016x>.snap engine images; only the newest matters
//	snap-*.snap.tmp            a snapshot cut short; Recover deletes it
//
// Each segment starts with an 8-byte magic ("CARWAL01") and the u64
// start LSN, then framed records (record.go). A snapshot bounds replay:
// every record with lsn <= bound is reflected in it, so sealed segments
// that end at or before the bound are deleted after a snapshot lands.
//
// Concurrency: Append only assigns an LSN and extends an in-memory
// buffer under l.mu — it is called while an engine lock is held and
// never performs I/O itself. All file I/O (write, fsync, segment roll)
// happens under l.ioMu, on the syncer goroutine or on the rare
// snapshot/seal paths, against a double buffer of two fixed halves, so
// an fsync in flight never delays appends — until the half being filled
// is full while the other is still being written: then Append waits for
// the syncer to swap them, and memory stays at the two halves whatever
// the write rate. Commit under sync=always waits on a condition
// variable until the syncer reports the LSN durable — many waiters
// share one fsync (group commit).
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/metrics"
	"caram/internal/subsystem"
)

// SyncMode selects when appended records are fsynced.
type SyncMode uint8

const (
	// SyncAlways fsyncs before Commit returns: an acknowledged write
	// survives SIGKILL and power loss.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs on a timer: a crash loses at most one
	// interval of acknowledged writes.
	SyncInterval
	// SyncNever leaves fsync to the OS (and to Seal): fastest, no
	// guarantee for anything not yet flushed at the moment of a crash.
	SyncNever
)

// SyncPolicy is a SyncMode plus its interval, parseable from the
// -wal-sync flag forms "always", "interval=<duration>", "never".
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration
}

func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval=" + p.Interval.String()
	}
	return "never"
}

// ParseSyncPolicy parses the -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch {
	case s == "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case s == "never":
		return SyncPolicy{Mode: SyncNever}, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(s[len("interval="):])
		if err != nil || d <= 0 {
			return SyncPolicy{}, fmt.Errorf("wal: bad sync interval %q", s)
		}
		return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
	}
	return SyncPolicy{}, fmt.Errorf("wal: bad sync policy %q (want always, interval=<duration>, never)", s)
}

// Options configures a Log.
type Options struct {
	Sync SyncPolicy
	// SegmentBytes rolls the active segment once it exceeds this size;
	// 0 means 64 MiB.
	SegmentBytes int64
	// SlowSync is a test hook: the syncer sleeps this long before
	// taking each commit batch, widening the window in which a SIGKILL
	// catches acknowledged-nothing, buffered-something state — the
	// kill-injection harness aims here.
	SlowSync time.Duration
}

const (
	segMagic            = "CARWAL01"
	snapMagic           = "CARSNP01"
	defaultSegmentBytes = 64 << 20
	// flushChunk bounds userland buffering: once this much is pending
	// the syncer is kicked to write (without fsync under SyncNever), and
	// an Append that finds a half this full waits for the swap, so
	// memory stays flat under write storms.
	flushChunk = 1 << 20
	bufBytes   = flushChunk + frameHeader + maxRecordBytes // a half of the double buffer, allocated once: it never regrows
)

// ErrClosed is returned for operations on a sealed log.
var ErrClosed = errors.New("wal: closed")

// Log is an open write-ahead log. Create one with Recover.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when durable/err/closed change
	buf     []byte     // framed records not yet handed to the OS
	spare   []byte     // the other half of the double buffer (bufBytes each, made by Append)
	nextLSN uint64     // next LSN to assign
	written uint64     // highest LSN written to the file
	durable uint64     // highest LSN fsynced
	snapLSN uint64     // bound of the newest snapshot on disk
	err     error      // sticky I/O error; the log is dead once set
	closed  bool

	ioMu    sync.Mutex // serializes all file I/O
	f       *os.File   // active segment
	segSize int64

	segments atomic.Int64 // on-disk segment count, including active

	kick chan struct{}
	done chan struct{}
	bg   sync.WaitGroup

	// Snapshot state kept between snapshots: the encoder's chunk and its CRC.
	snapMu  sync.Mutex
	snapW   *bufio.Writer
	snapSum hash.Hash32

	fsyncs     atomic.Uint64
	fsyncNanos atomic.Uint64
	fsyncHist  metrics.Histogram
	lastFsync  atomic.Int64          // unix nanos of the last fsync completion
	batchHist  metrics.SizeHistogram // records per syncer write

	snapshots        atomic.Uint64 // completed
	snapNanos        atomic.Uint64 // freeze through prune, completed snapshots
	snapCaptureNanos atomic.Uint64 // of that, inside the image callback
	snapBytes        atomic.Int64  // size of the newest snapshot file
	captureHist      metrics.Histogram
}

// Append encodes the entry, assigns it the next LSN, and buffers it.
// It never performs I/O — safe under an engine lock. The record is not
// durable (and under sync=always not even written) until Commit. When
// the half being filled holds flushChunk bytes, Append kicks the syncer
// and waits until it has swapped the halves: the half never grows, so a
// writer faster than the disk is held to the disk's pace, not buffered.
func (l *Log) Append(e subsystem.JournalEntry) (uint64, error) {
	l.mu.Lock()
	for len(l.buf) >= flushChunk && l.err == nil && !l.closed {
		l.kickSyncer()
		l.cond.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return 0, err
	}
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if len(e.Engine) > 255 {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: engine name of %d bytes", len(e.Engine))
	}
	lsn := l.nextLSN
	l.nextLSN++
	if l.buf == nil {
		l.buf = make([]byte, 0, bufBytes)
	}
	l.buf = appendRecord(l.buf, lsn, e)
	needKick := l.opts.Sync.Mode != SyncAlways && len(l.buf) >= flushChunk
	l.mu.Unlock()
	if needKick {
		l.kickSyncer()
	}
	return lsn, nil
}

// Commit blocks until lsn is durable under the sync policy. Under
// SyncAlways that means written and fsynced; under SyncInterval and
// SyncNever it returns immediately (the ticker / the OS will get
// there) — reporting only a sticky log error.
func (l *Log) Commit(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	if l.opts.Sync.Mode != SyncAlways {
		return l.Err()
	}
	l.mu.Lock()
	for l.durable < lsn && l.err == nil && !l.closed {
		l.mu.Unlock()
		l.kickSyncer()
		l.mu.Lock()
		if l.durable >= lsn || l.err != nil || l.closed {
			break
		}
		l.cond.Wait()
	}
	err := l.err
	if err == nil && l.durable < lsn {
		err = ErrClosed
	}
	l.mu.Unlock()
	return err
}

// LastLSN returns the highest LSN assigned so far (0 when none).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Err returns the sticky I/O error, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *Log) kickSyncer() {
	select {
	case l.kick <- struct{}{}:
	default: // a kick is already pending
	}
}

// syncer is the background group-commit loop: every kick (a Commit
// waiter under sync=always, or buffer pressure) and every interval
// tick flushes the pending batch in one write and, policy permitting,
// one fsync shared by every waiter.
func (l *Log) syncer() {
	defer l.bg.Done()
	var tick <-chan time.Time
	if l.opts.Sync.Mode == SyncInterval {
		t := time.NewTicker(l.opts.Sync.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-l.done:
			return
		case <-l.kick:
			l.flush(l.opts.Sync.Mode != SyncNever)
		case <-tick:
			l.flush(true)
		}
	}
}

// flush writes the pending batch to the active segment and, when
// fsync is set, makes it durable, advancing the commit horizon. Errors
// are sticky: the first failed write or fsync kills the log.
func (l *Log) flush(fsync bool) error {
	if d := l.opts.SlowSync; d > 0 {
		// Injected before the batch is taken: a SIGKILL in this window
		// loses exactly the userland-buffered, never-acknowledged
		// records — the state the crash harness asserts absent.
		time.Sleep(d)
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	batch := l.buf
	target := l.nextLSN - 1
	l.buf = l.spare
	l.spare = nil
	alreadyDurable := l.durable
	l.cond.Broadcast() // an Append waiting for room has it now
	l.mu.Unlock()

	var err error
	if len(batch) > 0 {
		if _, err = l.f.Write(batch); err == nil {
			l.segSize += int64(len(batch))
			l.batchHist.Observe(int(target - l.written)) // written moves only under ioMu
		}
	}
	// A roll requires everything in the retiring segment durable first
	// (recovery treats a non-final torn segment as fatal), so a
	// size-triggered roll forces the fsync even under relaxed policies.
	needRoll := err == nil && l.segSize >= l.opts.SegmentBytes
	synced := false
	if err == nil && (needRoll || (fsync && (len(batch) > 0 || alreadyDurable < target))) {
		start := time.Now()
		if err = l.f.Sync(); err == nil {
			synced = true
			took := time.Since(start)
			l.fsyncs.Add(1)
			l.fsyncNanos.Add(uint64(took))
			l.fsyncHist.Observe(int64(took))
			l.lastFsync.Store(time.Now().UnixNano())
		}
	}
	if err == nil && needRoll {
		err = l.rollLocked(target + 1)
	}

	l.mu.Lock()
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: %w", err)
		}
	} else {
		if target > l.written {
			l.written = target
		}
		if synced && target > l.durable {
			l.durable = target
		}
		if cap(batch) == bufBytes {
			l.spare = batch[:0] // not a seal's one-off buffer
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// rollLocked (ioMu held) seals the active segment and opens a fresh
// one whose records will start at startLSN. The retiring segment is
// fsynced first: every sealed segment is durable by construction,
// which is what lets recovery treat a torn non-final segment as fatal
// corruption rather than an expected crash artifact.
func (l *Log) rollLocked(startLSN uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	return l.openSegmentLocked(startLSN)
}

// openSegmentLocked (ioMu held) creates and syncs a new active segment.
func (l *Log) openSegmentLocked(startLSN uint64) error {
	name := segmentName(startLSN)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, segMagic...)
	hdr = appendU64(hdr, startLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = 16
	l.segments.Add(1)
	return nil
}

// Seal appends the clean-shutdown marker, flushes and fsyncs
// everything, and closes the log. A sealed log replays zero records on
// the next boot. Further Appends fail with ErrClosed.
func (l *Log) Seal() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.buf = appendRecord(l.buf, lsn, subsystem.JournalEntry{Op: subsystem.JournalSeal})
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()

	close(l.done)
	l.bg.Wait()
	err := l.flush(true)

	l.ioMu.Lock()
	if l.f != nil {
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.ioMu.Unlock()
	return err
}

// Stats is a point-in-time observation of the log for WAL STATUS and
// the metrics exposition.
type Stats struct {
	LSN         uint64 // highest assigned LSN
	Durable     uint64 // highest fsynced LSN
	SnapshotLSN uint64 // bound of the newest snapshot
	Pending     uint64 // LSNs assigned but not yet durable
	Segments    int    // on-disk segments, including active
	Policy      string
	Fsyncs      uint64
	FsyncNanos  uint64
	LastFsync   int64 // unix nanos of last fsync; 0 = never
	Sealed      bool
	// The snapshot family counts completed snapshots since boot.
	// SnapshotCaptureNanos is the part of SnapshotNanos spent in the
	// image callback — the roster lock and each engine's read lock in
	// turn, i.e. how long snapshots stalled writers.
	Snapshots            uint64
	SnapshotNanos        uint64
	SnapshotCaptureNanos uint64
	SnapshotBytes        int64 // newest snapshot file; 0 = none written since boot
	// One observation per fsync in Fsyncs, per capture in SnapshotCaptureNanos.
	FsyncLatency, CaptureLatency metrics.HistSnapshot
	CommitBatch                  metrics.SizeSnapshot // records per syncer write
}

// Stats returns current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	s := Stats{
		LSN:         l.nextLSN - 1,
		Durable:     l.durable,
		SnapshotLSN: l.snapLSN,
		Policy:      l.opts.Sync.String(),
		Sealed:      l.closed,
	}
	if s.LSN > l.durable {
		s.Pending = s.LSN - l.durable
	}
	l.mu.Unlock()
	s.Segments = int(l.segments.Load())
	s.Fsyncs = l.fsyncs.Load()
	s.FsyncNanos = l.fsyncNanos.Load()
	s.LastFsync = l.lastFsync.Load()
	s.Snapshots = l.snapshots.Load()
	s.SnapshotNanos = l.snapNanos.Load()
	s.SnapshotCaptureNanos = l.snapCaptureNanos.Load()
	s.SnapshotBytes = l.snapBytes.Load()
	s.FsyncLatency = l.fsyncHist.Snapshot()
	s.CaptureLatency = l.captureHist.Snapshot()
	s.CommitBatch = l.batchHist.Snapshot()
	return s
}

func segmentName(startLSN uint64) string {
	return fmt.Sprintf("wal-%016x.seg", startLSN)
}

func snapshotName(bound uint64) string {
	return fmt.Sprintf("snap-%016x.snap", bound)
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
