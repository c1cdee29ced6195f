package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"caram/internal/subsystem"
)

// TestRecoverSweepsSnapshotTemps: a snap-*.snap.tmp left by a crash
// mid-snapshot is deleted at boot and changes nothing about what
// recovery finds — even one that is a byte-valid snapshot of a later
// bound (it was never renamed into place, so it was never the anchor).
func TestRecoverSweepsSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: SyncPolicy{Mode: SyncAlways}}
	con, w, _ := openStack(t, dir, opts)
	for i := uint64(1); i <= 10; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	valid, err := os.ReadFile(takeSnapshot(t, dir, con, w))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(11); i <= 15; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	temps := map[string][]byte{
		snapshotName(12) + ".tmp": []byte("CARSNP01 cut short"),
		snapshotName(99) + ".tmp": valid,
	}
	for name, data := range temps {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	con2, _, res := openStack(t, dir, opts)
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("stale snapshot temps survived recovery: %v", left)
	}
	if res.SnapshotLSN != 10 || res.Replayed != 5 || res.LastLSN != 15 {
		t.Fatalf("recovery moved by the temps: %+v, want SnapshotLSN 10, Replayed 5, LastLSN 15", res)
	}
	for i := uint64(1); i <= 15; i++ {
		mustHit(t, con2, "db", i)
	}
}

// TestFailedSnapshotLeavesNoTemp: a snapshot that cannot be renamed
// into place returns its error with the table-sized temp file removed
// and the log untouched — nothing rolled, pruned or counted.
func TestFailedSnapshotLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	con, w, _ := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}, SegmentBytes: 256})
	for i := uint64(1); i <= 12; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Stats()
	// A non-empty directory sits where the snapshot must land, so the
	// rename fails after the temp file was fully written (this works as
	// root too, where an unwritable directory does not).
	if err := os.MkdirAll(filepath.Join(dir, snapshotName(12), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(con.SnapshotImage); err == nil {
		t.Fatal("snapshot over an occupied name succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("failed snapshot left its temp file behind: %v", left)
	}
	if st := w.Stats(); st.Segments != before.Segments || st.SnapshotLSN != 0 || st.Snapshots != 0 {
		t.Fatalf("failed snapshot changed the log: %+v, before %+v", st, before)
	}
}

// oracleReplay walks a segment image the way the whole-file reader
// this package used to have did — index, bounds-check against len,
// CRC — and returns how many records a recovery must replay and where
// the clean prefix ends.
func oracleReplay(data []byte) (records int, clean int) {
	off := 16
	for off < len(data) {
		if len(data)-off < frameHeader {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxRecordBytes || len(data)-off-frameHeader < n {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		if _, _, _, err := decodeRecord(payload); err != nil {
			break
		}
		records++
		off += frameHeader + n
	}
	return records, off
}

// TestReplayAcrossChunkEdges drives segment replay over the places a
// streaming reader can go wrong where a whole-file one cannot: a frame
// (and, shifted, a frame header) straddling the snapChunk edge, a tail
// torn exactly at the edge, a declared length running past EOF, a bad
// CRC in the final frame the edge splits. Each image must recover to what
// the whole-buffer oracle says — same record count, same
// TruncatedBytes, same truncated size — when it is the final segment,
// and be the same hard error when a later segment seals it.
func TestReplayAcrossChunkEdges(t *testing.T) {
	const records = 4000
	// 68-byte frames put frame 3854's payload across the edge; a first
	// record 52 bytes longer moves a frame header onto it instead.
	for _, firstName := range []int{2, 54} {
		lens := make([]int, records)
		for i := range lens {
			lens[i] = 2
		}
		lens[0] = firstName
		data, bounds := buildTornLog(t, lens)
		split := 0 // the frame the chunk edge falls inside
		for bounds[split] <= snapChunk {
			split++
		}
		start := bounds[split-1]
		if firstName == 2 && !(start+frameHeader < snapChunk) || firstName == 54 && !(start < snapChunk && start+frameHeader > snapChunk) {
			t.Fatalf("first name %d: frame %d starts at %d — the layout this test is built on moved", firstName, split, start)
		}

		pastEOF := append([]byte(nil), data[:bounds[split]]...)
		pastEOF = binary.LittleEndian.AppendUint32(pastEOF, 200)
		pastEOF = append(pastEOF, make([]byte, 104)...) // 4 CRC bytes + 100 of a declared 200
		// The straddling frame last: with frames behind it, it would be rot.
		badCRC := append([]byte(nil), data[:bounds[split]]...)
		badCRC[bounds[split]-1] ^= 0x40

		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"whole log", data},
			{"torn exactly at the chunk edge", data[:snapChunk]},
			{"torn one byte past the edge", data[:snapChunk+1]},
			{"cut inside the straddling frame's header", data[:start+3]},
			{"declared length past EOF", pastEOF},
			{"bad CRC in the straddling frame", badCRC},
		} {
			wantRecs, clean := oracleReplay(tc.data)
			wantTrunc := len(tc.data) - clean

			dir := t.TempDir()
			path := filepath.Join(dir, segmentName(1))
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, res, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
			if err != nil {
				t.Fatalf("first name %d, %s: %v", firstName, tc.name, err)
			}
			if res.LastLSN != uint64(wantRecs) || res.TruncatedBytes != wantTrunc {
				t.Fatalf("first name %d, %s: LastLSN=%d TruncatedBytes=%d, oracle says %d and %d",
					firstName, tc.name, res.LastLSN, res.TruncatedBytes, wantRecs, wantTrunc)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(clean) {
				t.Fatalf("first name %d, %s: segment is %d bytes after recovery (%v), want %d", firstName, tc.name, fi.Size(), err, clean)
			}

			// The same image behind a later segment is sealed history.
			dir = t.TempDir()
			path = filepath.Join(dir, segmentName(1))
			next := append(append([]byte(nil), segMagic...), appendU64(nil, uint64(wantRecs)+1)...)
			if err := errors.Join(os.WriteFile(path, tc.data, 0o644),
				os.WriteFile(filepath.Join(dir, segmentName(uint64(wantRecs)+1)), next, 0o644)); err != nil {
				t.Fatal(err)
			}
			_, _, err = Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
			if wantTrunc == 0 {
				if err != nil {
					t.Fatalf("first name %d, %s (sealed): %v", firstName, tc.name, err)
				}
				continue
			}
			if !errors.Is(err, errTorn) || !strings.Contains(err.Error(), "corrupt record at offset") {
				t.Fatalf("first name %d, %s (sealed): err = %v, want the torn-record refusal", firstName, tc.name, err)
			}
			if fi, _ := os.Stat(path); fi.Size() != int64(len(tc.data)) {
				t.Fatalf("first name %d, %s (sealed): refused segment was modified", firstName, tc.name)
			}
		}
	}
}

// bigEngine is an exact engine whose table is about 10 MB.
func bigEngine(t testing.TB) *subsystem.Engine {
	t.Helper()
	e, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 16, Slots: 12})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestSnapshotAllocGuard: once the capture's row storage and the
// writer's chunk exist, a snapshot allocates next to nothing — under
// 64 KiB on a 10 MB table, where the whole-buffer writer allocated
// about four times the file and a fresh chunk per snapshot 256 KiB.
func TestSnapshotAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dir := t.TempDir()
	con, w := journaled(t, dir, []*subsystem.Engine{bigEngine(t)}, 0)
	for i := uint64(1); i <= 1000; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(takeSnapshot(t, dir, con, w))
	if err != nil || fi.Size() < 8<<20 {
		t.Fatalf("snapshot of %d bytes (%v), want a table of at least 8 MB", fi.Size(), err)
	}
	if err := con.Insert("db", rec(2000)); err != nil {
		t.Fatal(err)
	}
	before := totalAlloc()
	if err := w.Snapshot(con.SnapshotImage); err != nil {
		t.Fatal(err)
	}
	got := totalAlloc() - before
	t.Logf("second snapshot of a %d-byte table allocated %d bytes", fi.Size(), got)
	if got >= 64<<10 {
		t.Fatalf("second snapshot allocated %d bytes, want < 64 KiB", got)
	}
}

// TestFreezeAllocGuard: on caram-load's mixed-wal table (2^17 rows of
// 8 slots at α = 0.57, a 13 MB array) a first snapshot allocates under
// 1 MiB — no copy of the table's words — and a write during an open
// freeze allocates nothing once a freeze has kept its rows before.
func TestFreezeAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 17, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for e.Main.LoadFactor() < 0.57 {
		e.Insert(rec(rng.Uint64()), nil) //nolint:errcheck // a duplicate draw is just skipped
	}
	// Journaled under sync=never: no syncer runs while the writes are
	// counted, so nothing parks on the log's mutex — a parked goroutine
	// may allocate its wait record, which is the runtime's, not a write's.
	w, _, err := Recover(t.TempDir(), nil, Options{Sync: SyncPolicy{Mode: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	sub := subsystem.New(0)
	if err := sub.AddEngine(e); err != nil {
		t.Fatal(err)
	}
	con := subsystem.NewConcurrent(sub).SetJournal(w, 0)
	before := totalAlloc()
	if err := w.Snapshot(con.SnapshotImage); err != nil {
		t.Fatal(err)
	}
	table, got := 8*uint64(e.Main.Array().Words()), totalAlloc()-before
	t.Logf("the first snapshot of a %d-byte table allocated %d bytes", table, got)
	if got >= 1<<20 {
		t.Fatalf("the first snapshot of a %d-byte table allocated %d bytes, want < 1 MiB", table, got)
	}

	writes := func() {
		for k := uint64(1 << 40); k < 1<<40+16; k++ {
			if err := con.Insert("db", rec(k)); err != nil {
				t.Fatal(err)
			}
			if err := con.Delete("db", key(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	frozenWrites := func() uint64 { // mallocs of the writes under an open freeze
		var img subsystem.Image
		con.SnapshotImage(&img)
		defer img.Engines[0].Rows.Release()
		before := mallocs()
		writes()
		return mallocs() - before
	}
	frozenWrites() // the first freeze to keep these rows grows the slab
	if allocs := frozenWrites(); allocs != 0 {
		t.Fatalf("16 journaled insert+delete pairs during a warm freeze allocated %d times, want 0", allocs)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestAppendAllocGuard: the WAL's double buffer never regrows. Once both
// halves exist, Append and the syncer's flush allocate nothing, and an
// Append that finds its half full waits for the syncer to write it
// rather than growing it: both halves keep bufBytes of capacity through
// three halves' worth of records. Every write is one observation of the
// commit-batch histogram, its records summed.
func TestAppendAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// Under sync=always only Commit and a full half kick the syncer.
	w, _, err := Recover(t.TempDir(), nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	ent := subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: "db", Rec: rec(1)}
	step := func() {
		if _, err := w.Append(ent); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(false); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("Append + flush allocated %.1f times, want 0", allocs)
	}
	records := uint64(103)
	size := len(appendRecord(nil, 1, ent))
	for n := 3 * flushChunk / size; n > 0; n-- {
		if _, err := w.Append(ent); err != nil {
			t.Fatal(err)
		}
		records++
		w.mu.Lock()
		halves := []int{cap(w.buf), cap(w.spare)}
		w.mu.Unlock()
		if halves[0] > bufBytes || halves[1] > bufBytes {
			t.Fatalf("after %d records: buffer capacities %v, past the %d of a half", records, halves, bufBytes)
		}
	}
	if err := w.flush(false); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	halves := []int{cap(w.buf), cap(w.spare)}
	w.mu.Unlock()
	if halves[0] != bufBytes || halves[1] != bufBytes {
		t.Fatalf("buffer capacities %v, want both halves at %d", halves, bufBytes)
	}
	if b := w.Stats().CommitBatch; b.N < 106 || b.Sum != records {
		t.Fatalf("commit batches: %d writes of %d records, want 106 or more of %d", b.N, b.Sum, records)
	}
}

// TestAppendWaitsForALaggingSyncer: a writer faster than the syncer is
// held to its pace. With the syncer stalled 20 ms before every batch,
// 300 000 appends fill each half many times over; the half being filled
// never grows past bufBytes — Append waits for the swap instead.
func TestAppendWaitsForALaggingSyncer(t *testing.T) {
	w, _, err := Recover(t.TempDir(), nil, Options{
		Sync:     SyncPolicy{Mode: SyncInterval, Interval: 5 * time.Millisecond},
		SlowSync: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Seal() //nolint:errcheck
	ent := subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: "db", Rec: rec(1)}
	most := 0
	for i := 0; i < 300_000; i++ {
		if _, err := w.Append(ent); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		most = max(most, cap(w.buf))
		w.mu.Unlock()
	}
	if most > bufBytes {
		t.Fatalf("the half being filled grew to %d bytes; a half is %d", most, bufBytes)
	}
	if st := w.Stats(); st.LSN != 300_000 {
		t.Fatalf("appended %d records, want 300000", st.LSN)
	}
}

// TestRecoverAllocGuard: recovery from a snapshot plus a log tail into
// matching bootstrap engines streams both — it allocates under a
// quarter of the snapshot file's size, where reading the file whole
// and decoding it into a row slice allocated over twice it.
func TestRecoverAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	dir := t.TempDir()
	con, w := journaled(t, dir, []*subsystem.Engine{bigEngine(t)}, 0)
	for i := uint64(1); i <= 1000; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(takeSnapshot(t, dir, con, w))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1001); i <= 3000; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	boot := []*subsystem.Engine{bigEngine(t)}
	before := totalAlloc()
	_, res, err := Recover(dir, boot, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	got := totalAlloc() - before
	if err != nil {
		t.Fatal(err)
	}
	if res.Engines[0] != boot[0] || res.Replayed != 2000 || res.Engines[0].Main.Count() != 3000 {
		t.Fatalf("recovered %+v with %d records, want the bootstrap engine, 2000 replayed, 3000 stored",
			res, res.Engines[0].Main.Count())
	}
	t.Logf("recovery over a %d-byte snapshot allocated %d bytes", fi.Size(), got)
	if got >= uint64(fi.Size())/4 {
		t.Fatalf("recovery over a %d-byte snapshot allocated %d bytes, want under a quarter of the file", fi.Size(), got)
	}
}

// TestReplayRecordAllocGuard: decoding a record, interning its engine
// name against the roster and applying it allocates nothing — replay
// allocates per segment, not per record.
func TestReplayRecordAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	eng := testEngine(t, "db")
	st := &replayState{m: map[string]*subsystem.Engine{"db": eng}, res: &RecoverResult{}}
	ins := appendRecord(nil, 0, subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: "db", Rec: rec(1)})[frameHeader:]
	del := appendRecord(nil, 0, subsystem.JournalEntry{Op: subsystem.JournalDelete, Engine: "db", Key: key(1)})[frameHeader:]
	replay := func(p []byte) {
		binary.LittleEndian.PutUint64(p, st.lastLSN+1)
		lsn, e, name, err := decodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		e.Engine = st.intern(name)
		if err := st.apply(lsn, e); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { replay(ins); replay(del) }); allocs != 0 {
		t.Fatalf("replaying an insert and a delete allocated %.1f times, want 0", allocs)
	}
	if st.res.Replayed != 2*201 || eng.Main.Count() != 0 {
		t.Fatalf("guard replayed %d records leaving %d stored, want %d and 0", st.res.Replayed, eng.Main.Count(), 2*201)
	}
}

// TestSnapshotsRaceWriters: two snapshot callers (each engine's freeze
// is theirs in turn, under snapMu) run against writers on two engines
// and lock-free readers; every acked insert is there after recovery,
// whichever snapshot it anchored on.
func TestSnapshotsRaceWriters(t *testing.T) {
	dir := t.TempDir()
	con, w := journaled(t, dir, []*subsystem.Engine{testEngine(t, "db"), testEngine(t, "aux")}, 0)
	const perWriter = 100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, port := range []string{"db", "aux"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= perWriter; i++ {
				if err := con.Insert(port, rec(i)); err != nil {
					t.Errorf("insert %s %d: %v", port, i, err)
					return
				}
				if _, err := con.Search(port, key(i)); err != nil {
					t.Errorf("search %s %d: %v", port, i, err)
				}
			}
		}()
	}
	var snaps sync.WaitGroup
	for i := 0; i < 2; i++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := w.Snapshot(con.SnapshotImage); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	boot := []*subsystem.Engine{testEngine(t, "db"), testEngine(t, "aux")}
	_, res, err := Recover(dir, boot, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Engines {
		if e.Main.Count() != perWriter {
			t.Fatalf("engine %q recovered %d records, want %d (snapshot %d + %d replayed)",
				e.Name, e.Main.Count(), perWriter, res.SnapshotLSN, res.Replayed)
		}
	}
}
