package wal

import (
	"bytes"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/subsystem"
)

// freshRec is the i-th record of a kind codecEngines' engines do not
// hold yet, one generator per engine type.
func freshRec(typ subsystem.EngineType, i uint64) match.Record {
	switch typ {
	case subsystem.LPMEngine:
		return match.Record{Key: bitutil.NewTernary(bitutil.FromUint64(0x0c000000+(i%4096)<<8), bitutil.FromUint64(0xff)), Data: bitutil.FromUint64(i % 4096)}
	case subsystem.PktClassEngine:
		return match.Record{Key: bitutil.Exact(bitutil.Vec128{Lo: 0xac100000 + i, Hi: 0x0600 + i%64}), Data: bitutil.FromUint64(i)}
	case subsystem.TrigramEngine:
		return match.Record{Key: bitutil.Exact(bitutil.Vec128{Lo: i * 0xbf58476d1ce4e5b9, Hi: i * 0x94d049bb133111eb}), Data: bitutil.FromUint64(i)}
	}
	return rec(i)
}

// heldRecords is everything an engine holds, placement aside — its
// records, a duplicated ternary record once per copy — in a canonical
// order.
func heldRecords(e *subsystem.Engine) []string {
	var out []string
	e.Main.Records(func(_ uint32, _ int, r match.Record) bool {
		out = append(out, r.Key.String(128)+"="+r.Data.String())
		return true
	})
	slices.Sort(out)
	return out
}

// TestSnapshotFreezesMidWrite: a snapshot is each engine as it was at
// its freeze, however writers move while the rows stream. Over all four
// engine types — an ECC engine with a quarantined row among them —
// inserts and deletes land on every engine after the
// freeze and before the first row is written, and a writer keeps going
// while the rows stream; the file is still, byte for byte, the oracle
// encoder's image of what the freeze saw. Then the log is abandoned in
// the middle of more writes (the crash), and recovery — that snapshot
// plus the log tail — rebuilds every engine to exactly what the live
// engines, the in-memory state every acknowledged write produced, hold.
func TestSnapshotFreezesMidWrite(t *testing.T) {
	dir := t.TempDir()
	engines := codecEngines(t, 14)
	for _, e := range engines {
		e.AppliedLSN = 0 // the log below is fresh: its first record is LSN 1
	}
	con, w := journaled(t, dir, engines, 3)
	next, last := uint64(1<<20), map[string]uint64{}
	write := func(e *subsystem.Engine) { // an insert, and every third time a delete of the engine's one before
		next++
		if err := con.Insert(e.Name, freshRec(e.Type, next)); err != nil {
			t.Errorf("insert into %s: %v", e.Name, err)
		}
		if prev, ok := last[e.Name]; ok && next%3 == 0 {
			if err := con.Delete(e.Name, freshRec(e.Type, prev).Key); err != nil {
				t.Errorf("delete from %s: %v", e.Name, err)
			}
		}
		last[e.Name] = next
	}

	var frozen []byte
	var beside atomic.Int64 // inserts the concurrent writer had acknowledged when the stream ended
	stop := make(chan struct{})
	var wg sync.WaitGroup
	err := w.Snapshot(func(img *subsystem.Image) {
		con.SnapshotImage(img)
		frozen = oracleSnapshot(w.LastLSN(), 3, engines)
		for i := 0; i < 300; i++ {
			write(engines[i%len(engines)])
		}
		wg.Add(1)
		go func() { // the writer the stream runs beside
			defer wg.Done()
			k := uint64(1 << 30)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k++
				if err := con.Insert("db", rec(k)); err != nil {
					t.Errorf("concurrent insert %d: %v", k, err)
					return
				}
				beside.Add(1)
			}
		}()
	})
	t.Logf("%d inserts acknowledged beside the stream", beside.Load())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(takeSnapshotPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frozen) {
		t.Fatalf("snapshot file (%d bytes) is not the image at the freeze (%d bytes)", len(got), len(frozen))
	}

	for i := 0; i < 100; i++ {
		write(engines[i%len(engines)])
	}
	// Crash: the stack is abandoned mid-history, never sealed.
	_, res, err := Recover(dir, nil, Options{Sync: SyncPolicy{Mode: SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed == 0 || len(res.Engines) != len(engines) {
		t.Fatalf("recovered %+v, want the snapshot plus a replayed tail", res)
	}
	for i, e := range res.Engines {
		if want, got := heldRecords(engines[i]), heldRecords(e); e.Name != engines[i].Name || !reflect.DeepEqual(got, want) {
			var only []string
			for _, g := range got {
				if !slices.Contains(want, g) {
					only = append(only, "recovered-only "+g)
				}
			}
			for _, g := range want {
				if !slices.Contains(got, g) {
					only = append(only, "live-only "+g)
				}
			}
			t.Fatalf("engine %q recovered %d records, the live engine %q holds %d: %v", e.Name, len(got), engines[i].Name, len(want), only)
		}
		if msg := e.Main.Verify(); msg != "" {
			t.Fatalf("engine %q after recovery: %s", e.Name, msg)
		}
	}
}

// takeSnapshotPath returns the one snapshot file in dir.
func takeSnapshotPath(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := listFiles(dir, "snap-", ".snap")
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files = %v (%v), want exactly one", snaps, err)
	}
	return dir + "/" + snaps[0].name
}
