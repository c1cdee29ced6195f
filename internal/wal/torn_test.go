package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"caram/internal/subsystem"
)

// subsystemInsertEntry is a journal insert for an engine whose name
// length controls the record's framed size.
func subsystemInsertEntry(engine string, i uint64) subsystem.JournalEntry {
	return subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: engine, Rec: rec(i + 1)}
}

// buildTornLog writes one insert record per element of nameLens (the
// engine-name length varies the record size), fsyncs them, and returns
// the raw segment bytes plus the end offset of every frame. The log is
// deliberately never sealed — the file is a crash image.
func buildTornLog(t testing.TB, nameLens []int) ([]byte, []int64) {
	t.Helper()
	dir := t.TempDir()
	w, _, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, n := range nameLens {
		e := subsystemInsertEntry(strings.Repeat("e", n), uint64(i))
		if last, err = w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(last); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	off := int64(16)
	for off < int64(len(data)) {
		n := binary.LittleEndian.Uint32(data[off:])
		off += frameHeader + int64(n)
		bounds = append(bounds, off)
	}
	if len(bounds) != len(nameLens) || off != int64(len(data)) {
		t.Fatalf("frame walk found %d frames ending at %d, want %d frames ending at %d",
			len(bounds), off, len(nameLens), len(data))
	}
	return data, bounds
}

// recoverPrefix writes data (a possibly-truncated segment image) as a
// fresh log directory and recovers it, returning the result.
func recoverPrefix(t testing.TB, data []byte) *RecoverResult {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatalf("recover over %d bytes: %v", len(data), err)
	}
	return res
}

// TestTornTailEveryOffset is the exhaustive form of the torn-tail
// property: truncating the segment at EVERY byte offset recovers
// exactly the prefix of fully-framed records — a cut inside the header
// discards the file, a cut mid-frame truncates back to the last clean
// frame boundary, and a cut on a boundary is a clean (if unsealed)
// log. No cut may error, and no torn record may ever replay.
func TestTornTailEveryOffset(t *testing.T) {
	data, bounds := buildTornLog(t, []int{3, 40, 7, 120, 11})
	for cut := 0; cut <= len(data); cut++ {
		res := recoverPrefix(t, data[:cut])
		wantRecs := 0
		wantTrunc := cut
		if cut >= 16 {
			wantTrunc = cut - 16
			for _, b := range bounds {
				if int64(cut) >= b {
					wantRecs++
					wantTrunc = cut - int(b)
				}
			}
		}
		if res.LastLSN != uint64(wantRecs) {
			t.Fatalf("cut %d: LastLSN = %d, want %d", cut, res.LastLSN, wantRecs)
		}
		if res.TruncatedBytes != wantTrunc {
			t.Fatalf("cut %d: TruncatedBytes = %d, want %d", cut, res.TruncatedBytes, wantTrunc)
		}
		if res.CleanShutdown {
			t.Fatalf("cut %d: unsealed log reported clean shutdown", cut)
		}
	}
}

// TestTornTailQuick drives the same property over randomized record
// sizes (testing/quick): whatever the framing layout, a cut inside the
// final record recovers exactly the n-1 records before it.
func TestTornTailQuick(t *testing.T) {
	f := func(rawLens [4]uint8, cutSeed uint16) bool {
		lens := make([]int, len(rawLens))
		for i, b := range rawLens {
			lens[i] = int(b)%80 + 1
		}
		data, bounds := buildTornLog(t, lens)
		last := bounds[len(bounds)-2] // end of the penultimate record
		span := int64(len(data)) - last
		cut := last + int64(cutSeed)%span
		res := recoverPrefix(t, data[:cut])
		return res.LastLSN == uint64(len(lens)-1) &&
			res.TruncatedBytes == int(cut-last) &&
			!res.CleanShutdown
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRefusesMidSegmentRot: a bad frame in the final segment
// with an intact record behind it is not a torn tail — the bytes after
// it were written, and may have been acked — so recovery refuses,
// naming where the damage is and which record survives it, and leaves
// the file byte for byte as it was. The same holds for a rotted header.
func TestRecoverRefusesMidSegmentRot(t *testing.T) {
	lens := make([]int, 20)
	for i := range lens {
		lens[i] = 4
	}
	data, bounds := buildTornLog(t, lens)
	for _, tc := range []struct {
		name      string
		flip      int64
		off, next int64 // the bad frame's offset, the intact record's
		lsn       int
	}{
		{"mid-segment", bounds[9] - 5, bounds[8], bounds[9], 11},
		{"header", 3, 0, 16, 1},
	} {
		rotted := append([]byte(nil), data...)
		rotted[tc.flip] ^= 0x08
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, rotted, 0o644); err != nil {
			t.Fatal(err)
		}
		_, res, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
		want := fmt.Sprintf("corrupt at offset %d, yet record %d is intact at offset %d", tc.off, tc.lsn, tc.next)
		if !errors.Is(err, errTorn) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: recovered %+v, err %v; want the refusal %q", tc.name, res, err, want)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, rotted) {
			t.Fatalf("%s: the refused segment was modified (%v)", tc.name, err)
		}
	}
}

// TestRecoverRefusesLSNGap: when the newest snapshot is unreadable and
// the segments the older one needs were pruned, the log no longer holds
// the records between the two bounds; recovery refuses to boot across
// them and names the range, where anchoring on the older snapshot and
// replaying what is left would ack writes that are gone.
func TestRecoverRefusesLSNGap(t *testing.T) {
	dir := t.TempDir()
	con, w, _ := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	insert := func(from, to uint64) {
		for i := from; i <= to; i++ {
			if err := con.Insert("db", rec(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(1, 100)
	older, err := os.ReadFile(takeSnapshot(t, dir, con, w))
	if err != nil {
		t.Fatal(err)
	}
	insert(101, 200)
	newer := takeSnapshot(t, dir, con, w) // prunes the older snapshot and segments 1-200
	insert(201, 210)
	// A crash between pruning segments and pruning snapshots leaves the
	// older file; then the newer one rots.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(100)), older, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(newer, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 40); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, res, err := Recover(dir, []*subsystem.Engine{testEngine(t, "db")}, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if !errors.Is(err, errGap) || !strings.Contains(err.Error(), "LSNs 101-200 missing") {
		t.Fatalf("recovered %+v, err %v; want the gap 101-200 refused", res, err)
	}
}

// TestTornTailSecondBootIsClean: after recovery truncated a torn tail,
// the next boot sees a byte-clean log — recovery repaired, not just
// tolerated.
func TestTornTailSecondBootIsClean(t *testing.T) {
	data, bounds := buildTornLog(t, []int{5, 9, 30})
	cut := bounds[2] - 7 // mid final record
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	w, res, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	if res.LastLSN != 2 || res.TruncatedBytes == 0 {
		t.Fatalf("first boot: LastLSN=%d TruncatedBytes=%d", res.LastLSN, res.TruncatedBytes)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	_, res2, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TruncatedBytes != 0 || !res2.CleanShutdown || res2.LastLSN <= 2 {
		t.Fatalf("second boot not clean: %+v", res2)
	}
}
