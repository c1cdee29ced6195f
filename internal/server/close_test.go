package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"caram/internal/subsystem"
	"caram/internal/wal"
	"caram/internal/wire"
)

// walServer builds a server over a recovered WAL in dir with one
// bootstrap exact engine "db".
func walServer(t *testing.T, dir string, opts wal.Options) (*Server, *wal.Log) {
	t.Helper()
	boot, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine,
		subsystem.TypedConfig{IndexBits: 6, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, res, err := wal.Recover(dir, []*subsystem.Engine{boot}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sub := subsystem.New(0)
	for _, e := range res.Engines {
		if err := sub.AddEngine(e); err != nil {
			t.Fatal(err)
		}
	}
	return New(sub, WithWAL(w, res, 0)), w
}

// TestCloseDrainsInflightHandlers is the graceful-shutdown drain
// regression: Close fired while a handler is mid-commit (the WAL's
// slow-sync hook holds the fsync open) must still deliver every reply
// for requests the handler had read, and the sealed log must be a
// clean recovery point needing zero replay — the final snapshot runs
// only after the drain, so it captures those very mutations.
//
// Before the fix, Close hard-closed every connection before
// handlers.Wait, so replies to already-executed requests were lost
// with the socket.
func TestCloseDrainsInflightHandlers(t *testing.T) {
	dir := t.TempDir()
	srv, _ := walServer(t, dir, wal.Options{
		Sync:     wal.SyncPolicy{Mode: wal.SyncAlways},
		SlowSync: 150 * time.Millisecond,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck

	// A pipelined burst: both inserts are read into the handler's
	// buffer at once; each blocks in the slow group commit.
	burst := wire.NewBatch()
	calls := []wire.Call{burst.Add("INSERT db 1 aa"), burst.Add("INSERT db 2 bb")}
	newClient(t, l.Addr().String()).Submit(burst)
	// Let the handler pick the burst up and enter the first commit,
	// then shut down while it is still in flight.
	time.Sleep(40 * time.Millisecond)
	closeErr := make(chan error, 1)
	go func() { closeErr <- srv.Close() }()

	for i, c := range calls {
		if line, err := c.Wait(); err != nil || string(line) != "OK" {
			t.Fatalf("reply %d lost in shutdown: %q, %v", i+1, line, err)
		}
	}
	burst.Release()
	if err := <-closeErr; err != nil {
		t.Fatalf("close: %v", err)
	}

	// The graceful shutdown must have left a sealed log whose final
	// snapshot already covers both acked inserts: zero replay.
	boot, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine,
		subsystem.TypedConfig{IndexBits: 6, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	w2, res, err := wal.Recover(dir, []*subsystem.Engine{boot}, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Seal() //nolint:errcheck
	if !res.CleanShutdown {
		t.Fatal("graceful Close did not seal the log")
	}
	if res.Replayed != 0 {
		t.Fatalf("graceful Close left %d records to replay, want 0", res.Replayed)
	}
	sub := subsystem.New(0)
	for _, e := range res.Engines {
		if err := sub.AddEngine(e); err != nil {
			t.Fatal(err)
		}
	}
	srv2 := New(sub)
	for req, want := range map[string]string{
		"SEARCH db 1": "HIT 0:00000000000000aa",
		"SEARCH db 2": "HIT 0:00000000000000bb",
	} {
		if got := srv2.Exec(req); got != want {
			t.Fatalf("%s after recovery = %q, want %q", req, got, want)
		}
	}
}

// TestCloseIdempotent: double Close stays safe with a WAL attached
// (the second call must not re-seal or re-snapshot).
func TestCloseIdempotent(t *testing.T) {
	srv, _ := walServer(t, t.TempDir(), wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}})
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestWALStatusCommand covers the wire command against a live WAL:
// the deterministic base form tracks the commit horizon, the SYNC form
// adds fsync telemetry, and arguments are validated.
func TestWALStatusCommand(t *testing.T) {
	srv, _ := walServer(t, t.TempDir(), wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}})
	defer srv.Close() //nolint:errcheck
	if got := srv.Exec("WAL STATUS"); got != "WAL lsn=0 durable=0 segments=1 snapshot_lsn=0 sync=always" {
		t.Fatalf("fresh WAL STATUS = %q", got)
	}
	for _, req := range []string{"INSERT db 1 aa", "INSERT db 2 bb", "DELETE db 1"} {
		if got := srv.Exec(req); got != "OK" {
			t.Fatalf("%s: %q", req, got)
		}
	}
	if got := srv.Exec("WAL STATUS"); got != "WAL lsn=3 durable=3 segments=1 snapshot_lsn=0 sync=always" {
		t.Fatalf("WAL STATUS after 3 mutations = %q", got)
	}
	sync := srv.Exec("WAL STATUS SYNC")
	for _, want := range []string{"WAL lsn=3 durable=3", " pending=0 ", " fsyncs=", " fsync_avg_us=", " last_fsync_age_ms="} {
		if !strings.Contains(sync, want) {
			t.Fatalf("WAL STATUS SYNC = %q, missing %q", sync, want)
		}
	}
	for _, bad := range []string{"WAL", "WAL FLUSH", "WAL STATUS EXTRA", "WAL STATUS SYNC MORE"} {
		if got := srv.Exec(bad); got != "ERR usage: WAL STATUS [SYNC]" {
			t.Fatalf("%s = %q, want usage error", bad, got)
		}
	}
}

// TestRecoveryOnMetrics: the recovery that opened the log is on
// /metrics. A life that stored three records, never closed (so its log
// is replayed, not snapshotted), is recovered into a two-slot engine
// that refuses the third — TestReplayCountsDroppedRecords' scenario, read
// from the exposition.
func TestRecoveryOnMetrics(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}}
	first, _ := walServer(t, dir, opts)
	for _, req := range []string{"INSERT db 1 4", "INSERT db 2 7", "INSERT db 3 a"} {
		if got := first.Exec(req); got != "OK" {
			t.Fatalf("%s: %q", req, got)
		}
	}
	small, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, rec, err := wal.Recover(dir, []*subsystem.Engine{small}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sub := subsystem.New(0)
	for _, e := range rec.Engines {
		if err := sub.AddEngine(e); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(sub, WithWAL(w, rec, 0))
	defer srv.Close() //nolint:errcheck
	var sb strings.Builder
	if _, err := srv.Exposition().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"\ncaram_wal_recovery_replayed_records 3\n",
		"\ncaram_wal_recovery_dropped_records 1\n",
		"\ncaram_wal_recovery_truncated_bytes 0\n",
		"\ncaram_wal_recovery_clean_shutdown 0\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want[1:], sb.String())
		}
	}
}

// TestWALStatusDisabled: a server without a WAL answers ERR.
func TestWALStatusDisabled(t *testing.T) {
	srv := allocServer()
	if got := srv.Exec("WAL STATUS"); got != "ERR wal disabled" {
		t.Fatalf("WAL STATUS without wal = %q", got)
	}
}
