package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/match"
	"caram/internal/subsystem"
)

func testEngine(t testing.TB, name string) *subsystem.Engine {
	t.Helper()
	e, err := subsystem.NewTypedEngine(name, subsystem.ExactEngine,
		subsystem.TypedConfig{IndexBits: 6, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// openStack recovers dir with a single bootstrap engine "db" and wires
// the full mutation path a live server uses: Concurrent over the
// recovered roster, journaling through the recovered log.
func openStack(t testing.TB, dir string, opts Options) (*subsystem.Concurrent, *Log, *RecoverResult) {
	t.Helper()
	w, res, err := Recover(dir, []*subsystem.Engine{testEngine(t, "db")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sub := subsystem.New(0)
	for _, e := range res.Engines {
		if err := sub.AddEngine(e); err != nil {
			t.Fatal(err)
		}
	}
	con := subsystem.NewConcurrent(sub).SetJournal(w, res.RosterLSN)
	return con, w, res
}

func key(i uint64) bitutil.Ternary { return bitutil.Exact(bitutil.FromUint64(i)) }

func rec(i uint64) match.Record {
	return match.Record{Key: key(i), Data: bitutil.FromUint64(i*3 + 1)}
}

func mustHit(t *testing.T, con *subsystem.Concurrent, port string, i uint64) {
	t.Helper()
	sr, err := con.Search(port, key(i))
	if err != nil {
		t.Fatalf("search %s %d: %v", port, i, err)
	}
	if !sr.Found || sr.Record.Data != bitutil.FromUint64(i*3+1) {
		t.Fatalf("search %s %d: found=%v data=%v, want hit with %d", port, i, sr.Found, sr.Record.Data, i*3+1)
	}
}

func mustMiss(t *testing.T, con *subsystem.Concurrent, port string, i uint64) {
	t.Helper()
	sr, err := con.Search(port, key(i))
	if err != nil {
		t.Fatalf("search %s %d: %v", port, i, err)
	}
	if sr.Found {
		t.Fatalf("search %s %d: unexpected hit", port, i)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{
		{"always", SyncPolicy{Mode: SyncAlways}},
		{"never", SyncPolicy{Mode: SyncNever}},
		{"interval=50ms", SyncPolicy{Mode: SyncInterval, Interval: 50 * time.Millisecond}},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %+v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("round-trip %q -> %q", tc.in, got.String())
		}
	}
	for _, bad := range []string{"", "sometimes", "interval=", "interval=0", "interval=-1s"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Errorf("ParseSyncPolicy(%q): no error", bad)
		}
	}
}

// TestAckedWritesSurviveCrash is the core durability contract: with
// sync=always every acknowledged mutation — inserts and the deletes
// that follow them — is on disk when the mutation call returns, so an
// abandoned (never-sealed) log replays to exactly the acknowledged
// state.
func TestAckedWritesSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	con, _, _ := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	for i := uint64(1); i <= 40; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= 10; i++ {
		if err := con.Delete("db", key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	// Simulated crash: the first stack is simply abandoned, no Seal, no
	// snapshot. Everything below must come from the log alone.

	con2, w2, res := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if res.CleanShutdown {
		t.Fatal("crash recovery reported a clean shutdown")
	}
	if res.Replayed != 50 {
		t.Fatalf("Replayed = %d, want 50", res.Replayed)
	}
	if res.LastLSN != 50 {
		t.Fatalf("LastLSN = %d, want 50", res.LastLSN)
	}
	for i := uint64(1); i <= 10; i++ {
		mustMiss(t, con2, "db", i)
	}
	for i := uint64(11); i <= 40; i++ {
		mustHit(t, con2, "db", i)
	}

	// A sealed log is a clean recovery point: zero replay next boot.
	if err := w2.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
	con3, _, res3 := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if !res3.CleanShutdown {
		t.Fatal("sealed log did not report clean shutdown")
	}
	if res3.Replayed != 50 {
		// No snapshot was ever taken, so the data still replays from
		// the log — but the seal marker must survive the reopen cycle.
		t.Fatalf("Replayed = %d, want 50", res3.Replayed)
	}
	mustHit(t, con3, "db", 20)
}

// TestReplayCountsDroppedRecords: a record the recovering engine refuses
// is counted and described, not swallowed. Three acked inserts replay
// into a bootstrap engine with room for two (a smaller -indexbits /
// -slots than the life that logged them): the third finds no slot, the
// boot goes on without it, and says so. A logged delete that finds
// nothing stays the documented no-op.
func TestReplayCountsDroppedRecords(t *testing.T) {
	dir := t.TempDir()
	con, _, _ := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	for i := uint64(1); i <= 3; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := con.Delete("db", key(99)); !errors.Is(err, caram.ErrNotFound) {
		t.Fatalf("delete of an absent key: %v", err)
	}

	small, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := Recover(dir, []*subsystem.Engine{small}, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 4 || res.Dropped != 1 {
		t.Fatalf("Replayed = %d, Dropped = %d, want 4 and 1", res.Replayed, res.Dropped)
	}
	if len(res.DroppedFirst) != 1 {
		t.Fatalf("DroppedFirst = %+v, want one entry", res.DroppedFirst)
	}
	if err := res.DroppedFirst[0]; !errors.Is(err, caram.ErrFull) || !strings.HasPrefix(err.Error(), "lsn 3 engine db: insert: ") {
		t.Fatalf("DroppedFirst[0] = %v, want the insert at LSN 3 on db refused with ErrFull", err)
	}
	if n := small.Main.Count(); n != 2 {
		t.Fatalf("recovered engine holds %d records, want 2", n)
	}

	// The same log into the geometry that wrote it drops nothing.
	_, _, res = openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if res.Replayed != 4 || res.Dropped != 0 || res.DroppedFirst != nil {
		t.Fatalf("Replayed = %d, Dropped = %d %+v, want 4 and none", res.Replayed, res.Dropped, res.DroppedFirst)
	}
}

// TestReplayKeepsOverWideRecords: a log written before the server
// refused writes wider than the engine may hold an insert that sets a
// key or data bit the engine cannot store. Replay applies it as the
// engine that took it did — cut to the engine's widths — and counts it
// replayed, not dropped: a replayed log rebuilds the table its previous
// life held, bit for bit, whichever caller wrote it (Engine.Insert, the
// library path, still cuts). Only the server refuses such writes now.
func TestReplayKeepsOverWideRecords(t *testing.T) {
	dir := t.TempDir()
	_, w, _ := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	recs := []match.Record{
		rec(1),
		{Key: bitutil.Exact(bitutil.FromParts(0xcafe, 0xdeadbeef)), Data: bitutil.FromUint64(0x45)},
		{Key: key(5), Data: bitutil.FromUint64(0x1ffffffff)},
		rec(2),
	}
	twin := testEngine(t, "db") // the engine the old server applied them to
	for _, r := range recs {
		lsn, err := w.Append(subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: "db", Rec: r})
		if err == nil {
			err = w.Commit(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	if field, _ := twin.Main.Wide(&recs[1]); field != "key" {
		t.Fatalf("Wide(128-bit key) = %q, want key", field)
	}
	if field, _ := twin.Main.Wide(&recs[2]); field != "data" {
		t.Fatalf("Wide(33-bit data) = %q, want data", field)
	}

	eng := testEngine(t, "db")
	_, res, err := Recover(dir, []*subsystem.Engine{eng}, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 4 || res.Dropped != 0 {
		t.Fatalf("Replayed = %d, Dropped = %d %v, want 4 and 0", res.Replayed, res.Dropped, res.DroppedFirst)
	}
	if !slices.Equal(eng.Main.Array().PeekWords(), twin.Main.Array().PeekWords()) {
		t.Fatal("the replayed table differs from the one the log's writer held")
	}
	if sr := eng.Search(key(5)); !sr.Found || sr.Record.Data != bitutil.FromUint64(0xffffffff) {
		t.Fatalf("key 5 after replay: found %v data %v, want the cut payload ffffffff", sr.Found, sr.Record.Data)
	}
}

// TestSnapshotTruncatesAndGates: a snapshot bounds replay (records at
// or below its bound never re-apply) and prunes sealed segments.
func TestSnapshotTruncatesAndGates(t *testing.T) {
	dir := t.TempDir()
	con, w, _ := openStack(t, dir, Options{
		Sync:         SyncPolicy{Mode: SyncAlways},
		SegmentBytes: 256, // force a roll every few records
	})
	for i := uint64(1); i <= 30; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if st := w.Stats(); st.Segments < 3 {
		t.Fatalf("tiny segments did not roll: %d segments", st.Segments)
	}
	if err := w.Snapshot(con.SnapshotImage); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	st := w.Stats()
	if st.SnapshotLSN != 30 {
		t.Fatalf("SnapshotLSN = %d, want 30", st.SnapshotLSN)
	}
	if st.Segments != 1 {
		t.Fatalf("segments after snapshot = %d, want 1 (sealed history pruned)", st.Segments)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("on-disk segments = %v, want exactly the active one", segs)
	}
	// Writes after the snapshot land in the log tail and replay.
	for i := uint64(31); i <= 35; i++ {
		if err := con.Insert("db", rec(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Crash-abandon; recover from snapshot + tail.
	con2, _, res := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if res.SnapshotLSN != 30 {
		t.Fatalf("recovered SnapshotLSN = %d, want 30", res.SnapshotLSN)
	}
	if res.Replayed != 5 {
		t.Fatalf("Replayed = %d, want 5 (only the post-snapshot tail)", res.Replayed)
	}
	for i := uint64(1); i <= 35; i++ {
		mustHit(t, con2, "db", i)
	}
}

// TestCreateDropReplay covers the roster records: engines created over
// the wire come back with their data, dropped bootstrap engines come
// back empty (flag engines are guaranteed present).
func TestCreateDropReplay(t *testing.T) {
	dir := t.TempDir()
	con, _, _ := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err := con.CreateEngine("ip", subsystem.LPMEngine,
		subsystem.TypedConfig{IndexBits: 6, Slots: 8}); err != nil {
		t.Fatalf("create: %v", err)
	}
	prefix := match.Record{
		Key:  bitutil.NewTernary(bitutil.FromUint64(0x0a000000), bitutil.FromUint64(0x00ffffff)),
		Data: bitutil.FromUint64(0x801),
	}
	if err := con.Insert("ip", prefix); err != nil {
		t.Fatalf("insert prefix: %v", err)
	}
	if err := con.Insert("db", rec(7)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := con.DropEngine("db"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	// Crash-abandon and recover with the same flag roster.
	con2, _, res := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if res.RosterLSN == 0 {
		t.Fatal("RosterLSN not recovered")
	}
	sr, err := con2.Search("ip", bitutil.Exact(bitutil.FromUint64(0x0a123456)))
	if err != nil || !sr.Found || sr.Record.Data != bitutil.FromUint64(0x801) {
		t.Fatalf("lpm search after recovery: found=%v data=%v err=%v", sr.Found, sr.Record.Data, err)
	}
	// db was dropped: the flag engine is re-added, but empty.
	mustMiss(t, con2, "db", 7)
}

// TestSnapshotReloadKeepsReach: a recovered lpm engine serves a lookup
// at the live engine's cost and keeps the live engine's placement
// bookkeeping. The /12's sixteen copies each sit in their own home
// bucket, so home 0 has no reach; a reload that re-derived reach from
// each copy's key index would credit all sixteen to the key's one home
// and walk 16 rows for a 1-row lookup, and every later snapshot would
// keep the made-up reach. A cluster of /24s under 10.5/16 overflows
// home 5, some of them are deleted, and the recovered Placement,
// HomeLoads, ExpectedRows, reaches and Verify all equal the live ones.
func TestSnapshotReloadKeepsReach(t *testing.T) {
	dir := t.TempDir()
	ip, err := subsystem.NewTypedEngine("ip", subsystem.LPMEngine, subsystem.TypedConfig{IndexBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	con, w := journaled(t, dir, []*subsystem.Engine{ip}, 0)
	prefix := func(addr, mask, hop uint64) match.Record {
		return match.Record{Key: bitutil.NewTernary(bitutil.FromUint64(addr), bitutil.FromUint64(mask)), Data: bitutil.FromUint64(hop)}
	}
	for _, p := range []struct{ mask, hop uint64 }{{0x000fffff, 12}, {0x000000ff, 24}} {
		if err := con.Insert("ip", prefix(0x0a000000, p.mask, p.hop)); err != nil {
			t.Fatalf("insert /%d: %v", p.hop, err)
		}
	}
	for i := uint64(0); i < 10; i++ { // home 5 holds a /12 copy and 7 of these; 3 spill to home 6
		if err := con.Insert("ip", prefix(0x0a050000+i<<8, 0xff, 24)); err != nil {
			t.Fatalf("insert 10.5.%d.0/24: %v", i, err)
		}
	}
	for _, i := range []uint64{0, 9} { // one in its home, one spilled
		if err := con.Delete("ip", prefix(0x0a050000+i<<8, 0xff, 0).Key); err != nil {
			t.Fatalf("delete 10.5.%d.0/24: %v", i, err)
		}
	}
	addr := bitutil.Exact(bitutil.FromUint64(0x0a000001))
	lookup := func(con *subsystem.Concurrent, when string) {
		t.Helper()
		sr, err := con.Search("ip", addr)
		if err != nil || !sr.Found || sr.Record.Data.Uint64() != 24 || sr.RowsRead != 1 {
			t.Fatalf("%s: lookup of 10.0.0.1 = found %v hop %d in %d rows, %v; want the /24 in 1 row",
				when, sr.Found, sr.Record.Data.Uint64(), sr.RowsRead, err)
		}
	}
	lookup(con, "live")
	if p := ip.Main.Placement(); p.SpilledRecords != 2 || p.OverflowingBuckets != 1 {
		t.Fatalf("live placement %+v, want the two /24s still spilled from home 5", p)
	}
	if err := w.Snapshot(con.SnapshotImage); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	con2, _, res := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	lookup(con2, "recovered")
	i := slices.IndexFunc(res.Engines, func(e *subsystem.Engine) bool { return e.Name == "ip" })
	if i < 0 || res.Engines[i].Main.Count() != ip.Main.Count() {
		t.Fatal("the lpm engine's records were not recovered")
	}
	got := res.Engines[i].Main
	for b := 0; b < got.Array().Rows(); b++ {
		if r, want := got.Reach(uint32(b)), ip.Main.Reach(uint32(b)); r != want {
			t.Fatalf("recovered home %d has reach %d, live %d", b, r, want)
		}
	}
	if diff := samePlacement(ip.Main, got); diff != "" {
		t.Fatal(diff)
	}
}

// TestRelaxedPoliciesFlushOnSeal: interval and never modes defer
// fsync, but Seal flushes everything — nothing acknowledged in the
// previous life goes missing after a graceful shutdown.
func TestRelaxedPoliciesFlushOnSeal(t *testing.T) {
	for _, pol := range []SyncPolicy{
		{Mode: SyncInterval, Interval: 5 * time.Millisecond},
		{Mode: SyncNever},
	} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			con, w, _ := openStack(t, dir, Options{Sync: pol})
			for i := uint64(1); i <= 20; i++ {
				if err := con.Insert("db", rec(i)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if err := w.Seal(); err != nil {
				t.Fatalf("seal: %v", err)
			}
			con2, _, res := openStack(t, dir, Options{Sync: pol})
			if !res.CleanShutdown {
				t.Fatal("sealed log did not report clean shutdown")
			}
			for i := uint64(1); i <= 20; i++ {
				mustHit(t, con2, "db", i)
			}
		})
	}
}

// TestSealedLogRejectsWrites: a sealed log fails Append/Commit with
// ErrClosed instead of silently dropping mutations.
func TestSealedLogRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	_, w, _ := openStack(t, dir, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: "db", Rec: rec(1)}); err == nil {
		t.Fatal("append after seal succeeded")
	}
}

// TestStagedReplayMatchesRecordAtATime: recovery runs each engine's
// consecutive inserts and deletes through the touch stage a chunk at a
// time; it must leave exactly what applying the same log one record at a
// time leaves. One log — two engines written in interleaved runs of every
// length up to past a chunk, duplicate inserts, deletes of present and
// absent keys, a CREATE and a DROP, several segments — is replayed both
// ways: with no snapshot into bootstraps whose "db" is smaller than the
// one that logged it, so that records are dropped, and with a snapshot
// partway, whose replay gates skip part of a run. The engines' stored
// words, counts and replay gates, and every RecoverResult count, must be
// identical.
func TestStagedReplayMatchesRecordAtATime(t *testing.T) {
	t.Run("no-snapshot", func(t *testing.T) { stagedVersusRecordAtATime(t, -1) })
	t.Run("snapshot", func(t *testing.T) { stagedVersusRecordAtATime(t, 60) })
}

// stagedVersusRecordAtATime builds the log, with a snapshot at step
// snapAt (never when negative), and compares the two replays of it.
func stagedVersusRecordAtATime(t *testing.T, snapAt int) {
	dir := t.TempDir()
	opts := Options{Sync: SyncPolicy{Mode: SyncNever}, SegmentBytes: 8 << 10}
	w, res, err := Recover(dir, []*subsystem.Engine{testEngine(t, "db"), testEngine(t, "aux")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sub := subsystem.New(0)
	for _, e := range res.Engines {
		if err := sub.AddEngine(e); err != nil {
			t.Fatal(err)
		}
	}
	con := subsystem.NewConcurrent(sub).SetJournal(w, res.RosterLSN)
	rng := rand.New(rand.NewSource(7))
	ports := []string{"db", "aux"}
	for step := 0; step < 120; step++ {
		switch step {
		case 30:
			if err := con.CreateEngine("tmp", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 4, Slots: 4}); err != nil {
				t.Fatal(err)
			}
			ports = append(ports, "tmp")
		case snapAt:
			if err := w.Snapshot(con.SnapshotImage); err != nil {
				t.Fatal(err)
			}
		case 90:
			if err := con.DropEngine("tmp"); err != nil {
				t.Fatal(err)
			}
			ports = ports[:2]
		}
		port := ports[rng.Intn(len(ports))]
		for n := rng.Intn(2*caram.BatchChunk + 3); n >= 0; n-- {
			i := uint64(rng.Intn(400))
			if rng.Intn(3) == 0 {
				con.Delete(port, key(i)) //nolint:errcheck // absent keys are part of the log
			} else {
				con.Insert(port, rec(i)) //nolint:errcheck // so are refused duplicates (not logged)
			}
		}
		if err := w.flush(false); err != nil { // writes the step out, rolling past 8 KiB
			t.Fatal(err)
		}
	}
	// No seal: the log ends as a crash leaves it.
	logged := w.LastLSN()

	boot := func() []*subsystem.Engine {
		small, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 4, Slots: 2})
		if err != nil {
			t.Fatal(err)
		}
		return []*subsystem.Engine{small, testEngine(t, "aux")}
	}
	// The oracle: the snapshot the same way, then every record of every
	// segment decoded and applied on its own.
	st := &replayState{m: make(map[string]*subsystem.Engine), res: &RecoverResult{}, br: bufio.NewReaderSize(nil, snapChunk)}
	for _, e := range boot() {
		st.m[e.Name] = e
		st.order = append(st.order, e.Name)
	}
	if err := st.loadLatestSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	segs, err := listFiles(dir, "wal-", ".seg")
	if err != nil || len(segs) < 3 {
		t.Fatalf("%d segments (%v), want several", len(segs), err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			t.Fatal(err)
		}
		for off := 16; off < len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			lsn, e, name, err := decodeRecord(data[off+frameHeader : off+frameHeader+n])
			if err != nil {
				t.Fatal(err)
			}
			e.Engine = st.intern(name)
			if err := st.apply(lsn, e); err != nil {
				t.Fatal(err)
			}
			off += frameHeader + n
		}
	}

	_, got, err := Recover(dir, boot(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replayed != st.res.Replayed || got.Dropped != st.res.Dropped || got.LastLSN != st.lastLSN ||
		got.RosterLSN != st.rosterLSN || got.CleanShutdown != st.sealed || fmt.Sprint(got.DroppedFirst) != fmt.Sprint(st.res.DroppedFirst) {
		t.Fatalf("staged replay: replayed=%d dropped=%d last=%d roster=%d clean=%v %v\nrecord at a time: replayed=%d dropped=%d last=%d roster=%d clean=%v %v",
			got.Replayed, got.Dropped, got.LastLSN, got.RosterLSN, got.CleanShutdown, got.DroppedFirst,
			st.res.Replayed, st.res.Dropped, st.lastLSN, st.rosterLSN, st.sealed, st.res.DroppedFirst)
	}
	if snapAt < 0 && (got.Dropped == 0 || uint64(got.Replayed) != logged) {
		t.Fatalf("replayed %d of %d records, dropped %d: the log does not exercise the stage", got.Replayed, logged, got.Dropped)
	}
	if snapAt >= 0 && (got.SnapshotLSN == 0 || got.Replayed < 500) {
		t.Fatalf("replayed %d records over a snapshot at %d: the log does not exercise the gate", got.Replayed, got.SnapshotLSN)
	}
	if len(got.Engines) != len(st.order) {
		t.Fatalf("staged replay recovered %d engines, record at a time %d", len(got.Engines), len(st.order))
	}
	for i, e := range got.Engines {
		want := st.m[st.order[i]]
		if e.Name != want.Name || e.AppliedLSN != want.AppliedLSN || e.Main.Count() != want.Main.Count() ||
			!slices.Equal(e.Main.Array().PeekWords(), want.Main.Array().PeekWords()) {
			t.Errorf("engine %s: staged replay holds %d records gated at %d, record at a time %s holds %d gated at %d, or their words differ",
				e.Name, e.Main.Count(), e.AppliedLSN, want.Name, want.Main.Count(), want.AppliedLSN)
		}
	}
}
