package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"caram/internal/subsystem"
)

// Snapshot files. One file holds the whole roster image:
//
//	[8 magic "CARSNP01"][u32 payloadLen][u32 crc32c(payload)][payload]
//	payload = [u64 bound][u64 rosterLSN][u32 nEngines] engines...
//	engine  = [u8 nameLen][name][u8 type]
//	          [u8 indexBits][u16 slots][u8 ecc]
//	          [u64 appliedLSN]
//	          [u32 nWords][nWords x u64 row words]
//	          [u8 0]
//
// The trailing byte once flagged an overflow CAM image after the rows.
// No served engine carries one, so it is written 0, and a file with
// any other value there is refused by name: its CAM records cannot be
// loaded, and skipping the file would anchor recovery on an older one.
//
// bound is the LSN horizon: every record with lsn <= bound is
// reflected in the image, so replay starts strictly after it and
// sealed segments ending at or before it can be deleted. The file is
// written to a temp name — header reserved, payload streamed through
// one snapChunk buffer, [payloadLen][crc] patched last — fsynced,
// renamed into place, and the directory fsynced: a crash mid-snapshot
// leaves the previous snapshot untouched and a garbage .tmp the next
// Recover deletes. Both directions stream through one snapChunk
// (DESIGN.md, "Durability memory model").

const (
	// snapChunk is the I/O unit of the snapshot writer, the snapshot
	// loader and segment replay.
	snapChunk = 256 << 10
	// snapTmpSuffix names a snapshot still being written.
	snapTmpSuffix = ".tmp"
)

// errBadSnapshot marks a snapshot file recovery must not anchor on
// (magic, length, structure or CRC): it is skipped, never deleted.
var errBadSnapshot = errors.New("wal: invalid snapshot")

// engineSize is what sizes one engine's share of the payload.
type engineSize struct{ name, words int }

// payloadLen returns the encoded payload length of a roster, or an
// error when it or any engine's counts exceed the format's u32 fields:
// written anyway they would wrap into a file recovery skips, after the
// segments it covered were pruned.
func payloadLen(engines []engineSize) (uint32, error) {
	n := int64(8 + 8 + 4)
	for _, e := range engines {
		if e.name > math.MaxUint8 || int64(e.words) > math.MaxUint32 {
			return 0, fmt.Errorf("wal: snapshot engine with a %d-byte name, %d row words exceeds the format's fields",
				e.name, e.words)
		}
		n += 1 + int64(e.name) + 1 + 1 + 2 + 1 + 8 + 4 + 8*int64(e.words) + 1
	}
	if n > math.MaxUint32 {
		return 0, fmt.Errorf("wal: snapshot payload of %d bytes exceeds the format's u32 length", n)
	}
	return uint32(n), nil
}

// imageSizes lists img's engines for payloadLen.
func imageSizes(img *subsystem.Image) []engineSize {
	sizes := make([]engineSize, len(img.Engines))
	for i := range img.Engines {
		sizes[i] = engineSize{name: len(img.Engines[i].Name), words: img.Engines[i].Rows.Len()}
	}
	return sizes
}

// snapEncoder is the one snapshot encoder: it streams the payload
// through a snapChunk-sized bufio.Writer, where the appendSnapshotImage
// it replaced built it in memory. Write errors are bufio's sticky
// error, read once at Flush.
type snapEncoder struct{ bw *bufio.Writer }

// put writes what the caller appended to the writer's own free space
// (no copy; at a chunk edge the append spills to the heap and Write
// copies it — still correct).
func (e snapEncoder) put(b []byte) { e.bw.Write(b) } //nolint:errcheck

// uint writes v as an n-byte little-endian integer.
func (e snapEncoder) uint(n int, v uint64) {
	b := e.bw.AvailableBuffer()
	for ; n > 0; n-- {
		b, v = append(b, byte(v)), v>>8
	}
	e.put(b)
}

// words writes a row image a buffer-full at a time.
func (e snapEncoder) words(ws []uint64) {
	for len(ws) > 0 {
		if e.bw.Available() < 8 {
			if e.bw.Flush() != nil {
				return
			}
		}
		b := e.bw.AvailableBuffer()
		k := min(len(ws), cap(b)/8)
		for _, w := range ws[:k] {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		e.put(b)
		ws = ws[k:]
	}
}

func (e snapEncoder) image(bound uint64, img *subsystem.Image) {
	e.uint(8, bound)
	e.uint(8, img.RosterLSN)
	e.uint(4, uint64(len(img.Engines)))
	for i := range img.Engines {
		ei := &img.Engines[i]
		e.uint(1, uint64(len(ei.Name)))
		e.put(append(e.bw.AvailableBuffer(), ei.Name...))
		e.uint(1, uint64(ei.Type))
		e.uint(1, uint64(ei.Conf.IndexBits))
		e.uint(2, uint64(ei.Conf.Slots))
		e.uint(1, bit(ei.Conf.ECC))
		e.uint(8, ei.AppliedLSN)
		e.uint(4, uint64(ei.Rows.Len()))
		ei.Rows.Each(e.words) // streamed from the engine's freeze, which it releases
		e.uint(1, 0)
	}
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// snapDecoder is the one snapshot decoder: a cursor over an open
// file's payload through a snapChunk-sized bufio.Reader, where the
// snapReader it replaced indexed the whole file in memory. The first
// failure sticks: an early end is errBadSnapshot, any other read error
// is itself.
type snapDecoder struct {
	br  *bufio.Reader
	err error
}

func (d *snapDecoder) fail(err error) {
	if err == io.EOF {
		err = fmt.Errorf("%w: truncated", errBadSnapshot)
	}
	d.err = err
}

// peek returns the next n bytes (n far below snapChunk) without
// consuming them, or nil once the decoder has failed.
func (d *snapDecoder) peek(n int) []byte {
	if d.err != nil {
		return nil
	}
	b, err := d.br.Peek(n)
	if err != nil {
		d.fail(err)
		return nil
	}
	return b
}

// skip discards n payload bytes (they still pass through the CRC).
func (d *snapDecoder) skip(n int) {
	if d.err == nil {
		if _, err := d.br.Discard(n); err != nil {
			d.fail(err)
		}
	}
}

// uint consumes an n-byte little-endian integer (0 after a failure).
func (d *snapDecoder) uint(n int) (v uint64) {
	b := d.peek(n)
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	d.skip(len(b))
	return v
}

// words fills dst with the next len(dst) row words, a buffer-full at a
// time: the row source Slice.LoadImageFrom pulls from.
func (d *snapDecoder) words(dst []uint64) error {
	for len(dst) > 0 {
		k := min(len(dst), max(d.br.Buffered()/8, 1))
		b := d.peek(8 * k)
		if b == nil {
			break
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		d.skip(8 * k)
		dst = dst[k:]
	}
	return d.err
}

// snapLoader names the engine an image of words row words, whose
// fixed fields are h (Rows unset), goes into.
type snapLoader func(h subsystem.EngineImage, words int) (*subsystem.Engine, error)

// walk decodes one payload in file order. With load nil it is the
// discarding visitor: every field is bounds-checked, nothing is kept,
// no engine is touched. Otherwise rows are decoded straight into the
// array of the engine load names (LoadImageFrom checks the geometry
// before the first row); what load or the engine refuses is returned as
// is, a malformed payload is errBadSnapshot. An engine image that
// carries an overflow CAM is refused by name in either mode, and not as
// errBadSnapshot: the file is sound, its CAM just cannot be loaded, so
// recovery must stop rather than skip to an older snapshot.
func (d *snapDecoder) walk(load snapLoader) (bound, rosterLSN uint64, err error) {
	bound, rosterLSN = d.uint(8), d.uint(8)
	for n := d.uint(4); n > 0 && d.err == nil; n-- {
		h := subsystem.EngineImage{Name: string(d.peek(int(d.uint(1))))}
		d.skip(len(h.Name))
		h.Type = subsystem.EngineType(d.uint(1))
		h.Conf.IndexBits = int(d.uint(1))
		h.Conf.Slots = int(d.uint(2))
		h.Conf.ECC = d.uint(1) == 1
		h.AppliedLSN = d.uint(8)
		words := int(d.uint(4))
		if d.err != nil {
			break
		}
		if load == nil {
			d.skip(8 * words)
		} else {
			eng, err := load(h, words)
			if err == nil {
				err = eng.Main.LoadImageFrom(words, d.words)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("wal: snapshot engine %q: %w", h.Name, err)
			}
		}
		if d.uint(1) != 0 && d.err == nil {
			return 0, 0, fmt.Errorf("wal: snapshot engine %q carries an overflow CAM, which no served engine holds", h.Name)
		}
	}
	if d.err == nil {
		if _, err := d.br.Peek(1); err == nil {
			d.err = fmt.Errorf("%w: trailing bytes", errBadSnapshot)
		} else if err != io.EOF {
			d.err = err
		}
	}
	return bound, rosterLSN, d.err
}

// readSnapshot checks f's header against its size, walks the payload
// through br and holds the bytes walked to the header's CRC32C. It
// replaces ReadFile + Checksum + decodeSnapshotImage; with load nil it
// is the verify pass, which reads every byte and changes nothing.
func readSnapshot(f *os.File, br *bufio.Reader, load snapLoader) (bound, rosterLSN uint64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	var hdr [16]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil && err != io.EOF {
		return 0, 0, err
	}
	n := int64(binary.LittleEndian.Uint32(hdr[8:]))
	if string(hdr[:8]) != snapMagic || n != fi.Size()-16 {
		return 0, 0, fmt.Errorf("%w: bad magic or length", errBadSnapshot)
	}
	sum := crc32.New(castagnoli)
	br.Reset(io.TeeReader(io.NewSectionReader(f, 16, n), sum))
	d := snapDecoder{br: br}
	if bound, rosterLSN, err = d.walk(load); err != nil {
		return 0, 0, err
	}
	if sum.Sum32() != binary.LittleEndian.Uint32(hdr[12:]) {
		return 0, 0, fmt.Errorf("%w: CRC mismatch", errBadSnapshot)
	}
	return bound, rosterLSN, nil
}

// writeSnapshot (snapMu held) writes img to path and fsyncs it: header
// reserved, payload streamed through the log's one chunk into the file
// and the running CRC, [payloadLen][crc] patched with one WriteAt. n is
// payloadLen's answer; an encoder that wrote anything else is a bug
// caught here, before the rename.
func (l *Log) writeSnapshot(path string, bound uint64, n uint32, img *subsystem.Image) (err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	hdr := make([]byte, 16)
	copy(hdr, snapMagic)
	if _, err = f.Write(hdr); err != nil {
		return err
	}
	l.snapSum.Reset()
	l.snapW.Reset(io.MultiWriter(f, l.snapSum)) // keeps the chunk, drops a failed snapshot's state
	snapEncoder{l.snapW}.image(bound, img)
	if err = l.snapW.Flush(); err != nil {
		return err
	}
	if end, err := f.Seek(0, io.SeekCurrent); err != nil || end != 16+int64(n) {
		return fmt.Errorf("wal: snapshot encoder wrote to offset %d (%v), sized %d payload bytes", end, err, n)
	}
	binary.LittleEndian.PutUint32(hdr[8:], n)
	binary.LittleEndian.PutUint32(hdr[12:], l.snapSum.Sum32())
	if _, err = f.WriteAt(hdr[8:], 8); err != nil {
		return err
	}
	return f.Sync()
}

// Snapshot freezes the roster image, streams it to disk, and truncates
// the log: the active segment is rolled and every sealed segment whose
// records all fall at or before the bound is deleted, along with older
// snapshot files. The image callback runs outside any wal lock (it
// takes the subsystem's own locks) and opens each engine's freeze, which
// is streamed, writers carrying on, and released on every exit path.
// The bound is the LSN horizon read before: append and apply share the
// engine-lock critical section, so each record at or below it was
// applied before its engine was frozen.
func (l *Log) Snapshot(image func(*subsystem.Image)) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if err := l.Err(); err != nil {
		return err
	}
	start := time.Now()

	l.mu.Lock()
	bound := l.nextLSN - 1
	l.mu.Unlock()

	var img subsystem.Image
	captureStart := time.Now()
	image(&img)
	capture := time.Since(captureStart)
	defer func() {
		for i := range img.Engines {
			img.Engines[i].Rows.Release() // idempotent: a streamed freeze is released already
		}
	}()
	// Refuse before anything is written, rolled or pruned.
	n, err := payloadLen(imageSizes(&img))
	if err != nil {
		return err
	}

	final := filepath.Join(l.dir, snapshotName(bound))
	tmp := final + snapTmpSuffix
	if err = l.writeSnapshot(tmp, bound, n, &img); err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best effort; Recover sweeps what this misses
		return err
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// Everything at or below the bound must be durable before any
	// segment covering it is deleted.
	if err := l.flush(true); err != nil {
		return err
	}

	l.ioMu.Lock()
	l.mu.Lock()
	next := l.written + 1
	l.mu.Unlock()
	// A record-free active segment (header only) is already the
	// post-snapshot tail and already named next — rolling it would
	// recreate the same file name under itself.
	if l.segSize > 16 {
		err = l.rollLocked(next)
	}
	if err == nil {
		err = l.pruneLocked(bound)
	}
	l.ioMu.Unlock()
	if err != nil {
		return err
	}

	l.mu.Lock()
	if bound > l.snapLSN {
		l.snapLSN = bound
	}
	l.mu.Unlock()
	l.snapshots.Add(1)
	l.snapCaptureNanos.Add(uint64(capture))
	l.captureHist.Observe(int64(capture))
	l.snapBytes.Store(16 + int64(n))
	l.snapNanos.Add(uint64(time.Since(start)))
	return nil
}

// pruneLocked (ioMu held) deletes sealed segments fully covered by the
// snapshot bound — a segment is deletable when its successor starts at
// or before bound+1 — and snapshot files older than the bound.
func (l *Log) pruneLocked(bound uint64) error {
	segs, err := listFiles(l.dir, "wal-", ".seg")
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].lsn <= bound+1 {
			if err := os.Remove(filepath.Join(l.dir, segs[i].name)); err != nil {
				return err
			}
			l.segments.Add(-1)
		}
	}
	snaps, err := listFiles(l.dir, "snap-", ".snap")
	if err != nil {
		return err
	}
	for _, sn := range snaps {
		if sn.lsn < bound {
			if err := os.Remove(filepath.Join(l.dir, sn.name)); err != nil {
				return err
			}
		}
	}
	return syncDir(l.dir)
}

// dirFile is one data-directory file named by an LSN: a segment
// (wal-<start>.seg), a snapshot (snap-<bound>.snap), or a snapshot
// still being written (snap-<bound>.snap.tmp).
type dirFile struct {
	name string
	lsn  uint64
}

// listFiles returns the data directory's files named prefix, a hex LSN
// and suffix, in LSN order. The LSN is parsed from the name; a segment's
// header start LSN is verified at replay time.
func listFiles(dir, prefix, suffix string) ([]dirFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []dirFile
	for _, ent := range ents {
		name := ent.Name()
		hex, ok := strings.CutPrefix(name, prefix)
		if hex, ok2 := strings.CutSuffix(hex, suffix); ok && ok2 {
			if lsn, err := strconv.ParseUint(hex, 16, 64); err == nil {
				files = append(files, dirFile{name: name, lsn: lsn})
			}
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].lsn < files[j].lsn })
	return files, nil
}

// Snapshotter runs fn every interval until stop is closed — the
// periodic-snapshot loop the server owns. Exposed here so the cadence
// logic stays next to the machinery it drives.
func Snapshotter(interval time.Duration, stop <-chan struct{}, fn func() error, onErr func(error)) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := fn(); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}
}
