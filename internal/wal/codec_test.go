package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/match"
	"caram/internal/subsystem"
)

// oracleSnapshot is the whole-buffer encoder the streaming one
// replaced, kept as the reference the streamed file is held to byte
// for byte (the SearchSerial precedent): payload built in memory,
// checksummed in one call, header in front. It reads the engines
// directly, each row whole (logicalRows), so a capture that drops or
// misplaces a word of some row shows as a byte difference.
func oracleSnapshot(bound, rosterLSN uint64, engines []*subsystem.Engine) []byte {
	var buf []byte
	buf = appendU64(buf, bound)
	buf = appendU64(buf, rosterLSN)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(engines)))
	for _, e := range engines {
		cfg := e.Main.Config()
		buf = append(buf, byte(len(e.Name)))
		buf = append(buf, e.Name...)
		buf = append(buf, byte(e.Type))
		ecc := byte(0)
		if cfg.ECC {
			ecc = 1
		}
		buf = append(buf, byte(cfg.IndexBits))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(cfg.Slots()))
		buf = append(buf, ecc)
		buf = appendU64(buf, e.AppliedLSN)
		rows := logicalRows(e.Main)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
		for _, w := range rows {
			buf = appendU64(buf, w)
		}
		buf = append(buf, 0) // no overflow CAM
	}
	file := append([]byte(nil), snapMagic...)
	file = binary.LittleEndian.AppendUint32(file, uint32(len(buf)))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(buf, castagnoli))
	return append(file, buf...)
}

// logicalRows is a slice's image at full width rebuilt from what it
// reports holding — every record in its slot, every row's reach (a
// quarantined row's from its shadow) — into zeroed rows: the image a
// snapshot must carry, independent of how a capture copies it.
func logicalRows(s *caram.Slice) []uint64 {
	l, rw := s.Layout(), s.Array().RowWords()
	img := make([]uint64, s.Array().Words())
	s.Records(func(b uint32, slot int, r match.Record) bool {
		if err := l.WriteSlot(img[int(b)*rw:int(b+1)*rw], slot, r); err != nil {
			panic(err)
		}
		return true
	})
	for b := 0; b < s.Config().Rows(); b++ {
		l.WriteAux(img[b*rw:(b+1)*rw], uint64(s.Reach(uint32(b))))
	}
	return img
}

// codecEngines builds the roster the codec tests share: all four
// engine types and an ECC engine with one row quarantined at capture
// time (its image must come from the shadow). dbIndexBits sizes the exact engine: 4 keeps the
// committed testdata file small, 14 spreads its rows over several
// snapChunks. Only APIs the parent commit has — testdata is generated
// by running this same function there.
func codecEngines(t testing.TB, dbIndexBits int) []*subsystem.Engine {
	t.Helper()
	mk := func(name string, typ subsystem.EngineType, tc subsystem.TypedConfig, applied uint64) *subsystem.Engine {
		e, err := subsystem.NewTypedEngine(name, typ, tc)
		if err != nil {
			t.Fatal(err)
		}
		e.AppliedLSN = applied
		return e
	}
	put := func(e *subsystem.Engine, r match.Record) {
		if err := e.Insert(r, nil); err != nil {
			t.Fatalf("%s insert: %v", e.Name, err)
		}
	}

	db := mk("db", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: dbIndexBits, Slots: 4}, 11)
	for i := uint64(1); i <= 40; i++ {
		put(db, rec(i))
	}

	ip := mk("ip", subsystem.LPMEngine, subsystem.TypedConfig{IndexBits: 6, Slots: 8}, 12)
	for i := uint64(0); i < 12; i++ {
		put(ip, match.Record{
			Key:  bitutil.NewTernary(bitutil.FromUint64(0x0a000000+i<<16), bitutil.FromUint64(0xff)),
			Data: bitutil.FromUint64(0x800 + i),
		})
	}

	acl := mk("acl", subsystem.PktClassEngine, subsystem.TypedConfig{IndexBits: 5, Slots: 4}, 13)
	for i := uint64(0); i < 6; i++ {
		put(acl, match.Record{
			Key:  bitutil.Exact(bitutil.Vec128{Lo: 0xc0a80000 + i*0x01010101, Hi: 0x1100 + i}),
			Data: bitutil.FromUint64(i<<16 | (i + 1)),
		})
	}

	tri := mk("tri", subsystem.TrigramEngine, subsystem.TypedConfig{IndexBits: 5, Slots: 4}, 14)
	for i := uint64(1); i <= 9; i++ {
		put(tri, match.Record{
			Key:  bitutil.Exact(bitutil.Vec128{Lo: i * 0x9e3779b97f4a7c15, Hi: i * 0xc2b2ae3d27d4eb4f}),
			Data: bitutil.FromUint64(i),
		})
	}

	ecc := mk("ecc", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 5, Slots: 4, ECC: true}, 15)
	for i := uint64(1); i <= 20; i++ {
		put(ecc, rec(i))
	}
	home := ecc.Main.Index(key(7).Value)
	ecc.Main.Array().PeekRow(home)[0] ^= 1<<3 | 1<<40 // a double-bit soft error in storage
	if res := ecc.Main.Lookup(key(7)); !res.Erred || ecc.Main.QuarantinedRows() != 1 {
		t.Fatalf("ecc engine: row not quarantined (lookup %+v)", res)
	}
	return []*subsystem.Engine{db, ip, acl, tri, ecc}
}

// samePlacement reports the first way a recovered slice's placement
// bookkeeping differs from the live one's — Placement, HomeLoads,
// ExpectedRows — or a Verify failure of either, or "".
func samePlacement(live, got *caram.Slice) string {
	if g, l := got.Placement(), live.Placement(); g != l {
		return fmt.Sprintf("Placement %+v, live %+v", g, l)
	}
	if g, l := got.HomeLoads(), live.HomeLoads(); !slices.Equal(g, l) {
		return fmt.Sprintf("HomeLoads %v, live %v", g, l)
	}
	if g, l := got.ExpectedRows(), live.ExpectedRows(); g != l {
		return fmt.Sprintf("ExpectedRows %v, live %v", g, l)
	}
	if v := live.Verify(); v != "" {
		return "live: " + v
	}
	if v := got.Verify(); v != "" {
		return "recovered: " + v
	}
	return ""
}

// denseEngines are small tables of three row layouts filled past a load
// factor of 0.8 and then thinned by every third record: rows at every
// mark, holes below marks, spilled records and raised reach fields —
// the rows a mark-bounded capture can get wrong.
func denseEngines(t testing.TB) []*subsystem.Engine {
	t.Helper()
	var out []*subsystem.Engine
	for _, tc := range []struct {
		name string
		typ  subsystem.EngineType
		rec  func(i uint64) match.Record
	}{
		{"db", subsystem.ExactEngine, rec},
		{"acl", subsystem.PktClassEngine, func(i uint64) match.Record {
			return match.Record{Key: bitutil.Exact(bitutil.Vec128{Lo: i * 0x9e3779b97f4a7c15, Hi: i & 0xffffff}), Data: bitutil.FromUint64(i)}
		}},
		{"tri", subsystem.TrigramEngine, func(i uint64) match.Record {
			return match.Record{Key: bitutil.Exact(bitutil.Vec128{Lo: i * 0x9e3779b97f4a7c15, Hi: i * 0xc2b2ae3d27d4eb4f}), Data: bitutil.FromUint64(i)}
		}},
	} {
		e, err := subsystem.NewTypedEngine(tc.name, tc.typ, subsystem.TypedConfig{IndexBits: 5, Slots: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); e.Main.LoadFactor() < 0.8; i++ {
			e.Insert(tc.rec(i), nil) //nolint:errcheck // a full chain just skips the record
		}
		var thin []match.Record
		e.Main.Records(func(_ uint32, slot int, r match.Record) bool {
			if r.Data.Uint64()%3 == 0 {
				thin = append(thin, r)
			}
			return true
		})
		for _, r := range thin {
			if err := e.Delete(r.Key); err != nil {
				t.Fatal(err)
			}
		}
		if msg := e.Main.Verify(); msg != "" || e.Main.Placement().SpilledRecords == 0 {
			t.Fatalf("%s: %q, %+v", tc.name, msg, e.Main.Placement())
		}
		out = append(out, e)
	}
	return out
}

// journaled wires engines to a fresh log in dir the way a server does.
func journaled(t testing.TB, dir string, engines []*subsystem.Engine, rosterLSN uint64) (*subsystem.Concurrent, *Log) {
	t.Helper()
	w, _, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	sub := subsystem.New(0)
	for _, e := range engines {
		if err := sub.AddEngine(e); err != nil {
			t.Fatal(err)
		}
	}
	return subsystem.NewConcurrent(sub).SetJournal(w, rosterLSN), w
}

// takeSnapshot takes a snapshot and returns the one file it left.
func takeSnapshot(t testing.TB, dir string, con *subsystem.Concurrent, w *Log) string {
	t.Helper()
	if err := w.Snapshot(con.SnapshotImage); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files = %v (%v), want exactly one", snaps, err)
	}
	return snaps[0]
}

// contents is everything of an engine a snapshot must carry.
type contents struct {
	Type    subsystem.EngineType
	Applied uint64
	Main    []placed
}

type placed struct {
	Bucket uint32
	Slot   int
	Rec    match.Record
}

func contentsOf(e *subsystem.Engine) contents {
	c := contents{Type: e.Type, Applied: e.AppliedLSN}
	e.Main.Records(func(b uint32, slot int, r match.Record) bool {
		c.Main = append(c.Main, placed{b, slot, r})
		return true
	})
	return c
}

func rosterContents(engines []*subsystem.Engine) map[string]contents {
	m := make(map[string]contents, len(engines))
	for _, e := range engines {
		m[e.Name] = contentsOf(e)
	}
	return m
}

// TestSnapshotStreamMatchesOracle: the streamed file is the oracle
// encoder's, byte for byte — over all four engine types with a
// quarantined ECC row (rows spanning several snapChunks), an empty roster, and a name at the field's limit — and
// loading it back (verify pass, then straight into engines) rebuilds
// every record where it was.
func TestSnapshotStreamMatchesOracle(t *testing.T) {
	longName := strings.Repeat("n", 255)
	long, err := subsystem.NewTypedEngine(longName, subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 3, Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := long.Insert(rec(5), nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		engines []*subsystem.Engine
	}{
		{"all-types", codecEngines(t, 14)},
		{"dense-with-holes", denseEngines(t)},
		{"empty-roster", nil},
		{"name-255", []*subsystem.Engine{long}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			con, w := journaled(t, dir, tc.engines, 3)
			want := rosterContents(tc.engines)
			size := 0
			for i := 0; i < 2; i++ { // the second pass reuses each slice's freeze storage
				if len(tc.engines) > 0 {
					name := tc.engines[0].Name
					if err := con.Insert(name, rec(uint64(500+i))); err != nil {
						t.Fatal(err)
					}
					want[name] = contentsOf(tc.engines[0])
				}
				path := takeSnapshot(t, dir, con, w)
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				size = len(got)
				if oracle := oracleSnapshot(w.LastLSN(), 3, tc.engines); !bytes.Equal(got, oracle) {
					t.Fatalf("pass %d: streamed file (%d bytes) differs from the oracle encoder's (%d bytes)", i, len(got), len(oracle))
				}
				if st := w.Stats(); st.Snapshots != uint64(i+1) || st.SnapshotBytes != int64(len(got)) ||
					st.SnapshotCaptureNanos == 0 || st.SnapshotCaptureNanos > st.SnapshotNanos {
					t.Fatalf("pass %d: snapshot stats %+v", i, st)
				}
			}
			if tc.name == "all-types" && size < 2*snapChunk {
				t.Fatalf("snapshot of %d bytes does not span the chunk it is streamed through", size)
			}
			_, res, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
			if err != nil {
				t.Fatal(err)
			}
			if res.RosterLSN != 3 || res.SnapshotLSN != w.LastLSN() {
				t.Fatalf("recovered RosterLSN=%d SnapshotLSN=%d, want 3 and %d", res.RosterLSN, res.SnapshotLSN, w.LastLSN())
			}
			if got := rosterContents(res.Engines); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered roster differs from the captured one:\n got %+v\nwant %+v", got, want)
			}
			for i, e := range res.Engines {
				if e.Name != tc.engines[i].Name {
					t.Fatalf("engine %d is %q, want %q (snapshot order wins)", i, e.Name, tc.engines[i].Name)
				}
				if diff := samePlacement(tc.engines[i].Main, e.Main); diff != "" {
					t.Fatalf("engine %q after load: %s", e.Name, diff)
				}
			}
		})
	}
}

// parentSnapshot was written by commit 908d8b1's whole-buffer encoder
// from codecEngines(t, 4), journaled with roster LSN 3 and two further
// inserts into "db" (so its bound is 2). overflowSnapshot was written
// the same way from a roster whose "db" also carried a 5-record
// overflow CAM.
const (
	parentSnapshot   = "testdata/snap-908d8b1-nocam.snap"
	overflowSnapshot = "testdata/snap-908d8b1.snap"
)

// bootstrapLike builds empty engines of ref's names, types and
// geometries: what a server started with matching flags holds.
func bootstrapLike(t *testing.T, ref []*subsystem.Engine) []*subsystem.Engine {
	t.Helper()
	var boot []*subsystem.Engine
	for _, e := range ref {
		cfg := e.Main.Config()
		b, err := subsystem.NewTypedEngine(e.Name, e.Type,
			subsystem.TypedConfig{IndexBits: cfg.IndexBits, Slots: cfg.Slots(), ECC: cfg.ECC})
		if err != nil {
			t.Fatal(err)
		}
		boot = append(boot, b)
	}
	return boot
}

// recoverFile recovers a directory holding data as the snapshot with
// bound 2.
func recoverFile(t *testing.T, data []byte, bootstrap []*subsystem.Engine) (*RecoverResult, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, res, err := Recover(dir, bootstrap, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	return res, err
}

// TestLoadsParentSnapshot: a file the previous encoder wrote loads
// through the streaming decoder to the same records — into engines
// rebuilt from the snapshot's own config, and into matching bootstrap
// engines.
func TestLoadsParentSnapshot(t *testing.T) {
	data, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	ref := codecEngines(t, 4)
	for _, i := range []uint64{500, 501} {
		if err := ref[0].Insert(rec(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	ref[0].AppliedLSN = 2
	want := rosterContents(ref)

	for _, tc := range []struct {
		name      string
		bootstrap []*subsystem.Engine
	}{
		{"rebuilt", nil},
		{"bootstrap", bootstrapLike(t, ref)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := recoverFile(t, data, tc.bootstrap)
			if err != nil {
				t.Fatal(err)
			}
			if res.SnapshotLSN != 2 || res.RosterLSN != 3 || res.Replayed != 0 {
				t.Fatalf("recovered %+v, want SnapshotLSN 2, RosterLSN 3, nothing replayed", res)
			}
			if got := rosterContents(res.Engines); !reflect.DeepEqual(got, want) {
				t.Fatalf("parent snapshot loaded to different contents:\n got %+v\nwant %+v", got, want)
			}
			for i, e := range res.Engines {
				if tc.bootstrap != nil && e != tc.bootstrap[i] {
					t.Fatalf("engine %q was rebuilt, want the matching bootstrap engine loaded in place", e.Name)
				}
			}
		})
	}
}

// TestRecoverRefusesOverflowSnapshot: a snapshot whose engine carries
// an overflow CAM image is sound — its CRC holds — but no served engine
// can take the CAM's records. Recovery refuses it by the engine's name,
// loads nothing, and does not skip it for an older snapshot.
func TestRecoverRefusesOverflowSnapshot(t *testing.T) {
	data, err := os.ReadFile(overflowSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	boot := bootstrapLike(t, codecEngines(t, 4))
	for _, tc := range []struct {
		name      string
		bootstrap []*subsystem.Engine
	}{
		{"rebuilt", nil},
		{"bootstrap", boot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := recoverFile(t, data, tc.bootstrap)
			if err == nil || res != nil {
				t.Fatalf("Recover = %+v, %v; want a refusal", res, err)
			}
			if errors.Is(err, errBadSnapshot) || !strings.Contains(err.Error(), `"db"`) {
				t.Fatalf("Recover error %q: want a refusal naming engine \"db\", not a skippable bad snapshot", err)
			}
		})
	}
	for _, e := range boot {
		if n := e.Main.Count(); n != 0 || e.AppliedLSN != 0 {
			t.Fatalf("bootstrap engine %q holds %d records at LSN %d after the refusal, want none loaded", e.Name, n, e.AppliedLSN)
		}
	}
}

// TestPayloadLenRefusesWhatTheFormatCannotHold: the u32 fields are
// checked on sizes alone, so a roster past them is refused before a
// byte is written; sizes the format holds are summed exactly.
func TestPayloadLenRefusesWhatTheFormatCannotHold(t *testing.T) {
	for _, tc := range []struct {
		name    string
		engines []engineSize
		want    uint32
		refused bool
	}{
		{"empty roster", nil, 20, false},
		{"one engine", []engineSize{{name: 2, words: 10}}, 20 + 2 + 19 + 80, false},
		{"-indexbits 26 -slots 8: 7 GB of rows", []engineSize{{name: 2, words: (1 << 26) * 13}}, 0, true},
		{"word count past u32", []engineSize{{name: 2, words: 1 << 32}}, 0, true},
		{"each engine fits, the sum does not", []engineSize{
			{name: 1, words: 300 << 20}, {name: 1, words: 300 << 20}}, 0, true},
		{"name past u8", []engineSize{{name: 256, words: 1}}, 0, true},
	} {
		got, err := payloadLen(tc.engines)
		if (err != nil) != tc.refused || got != tc.want {
			t.Errorf("%s: payloadLen = %d, %v; want %d, refused=%v", tc.name, got, err, tc.want, tc.refused)
		}
	}
}
