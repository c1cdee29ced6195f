package cluster

import (
	"net"
	"testing"

	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/wal"
)

// startWALBackend boots a backend whose server journals to a fresh WAL
// under the given sync policy, mirroring `caram-server -data`.
func startWALBackend(t testing.TB, mode wal.SyncMode) *testBackend {
	t.Helper()
	sub := subsystem.New(0)
	exactEngine(t, sub, "db")
	w, res, err := wal.Recover(t.TempDir(), nil, wal.Options{Sync: wal.SyncPolicy{Mode: mode}})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sub, server.WithWAL(w, res, 0))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns when the server closes
	t.Cleanup(func() { srv.Close() })
	return &testBackend{srv: srv, addr: l.Addr().String()}
}

// TestRouterWALStatusMerge: WAL STATUS scatters to every backend and
// merges into one fleet line — summed commit horizons, the minimum
// snapshot boundary (the fleet's replay bound), and the common sync
// policy. Writes route to exactly one owner, so the fleet lsn sum must
// equal the number of acked mutations.
func TestRouterWALStatusMerge(t *testing.T) {
	bks := []*testBackend{
		startWALBackend(t, wal.SyncAlways),
		startWALBackend(t, wal.SyncAlways),
	}
	rt, _ := testRouter(t, bks, nil)

	if got := rdrive(t, rt, "WAL STATUS")[0]; got != "WAL nodes=2 lsn=0 durable=0 segments=2 snapshot_lsn=0 sync=always" {
		t.Fatalf("fresh fleet WAL STATUS = %q", got)
	}
	for _, req := range []string{
		"INSERT db dead 42", "INSERT db beef 43", "INSERT db f00d 44",
	} {
		if got := rdrive(t, rt, req)[0]; got != "OK" {
			t.Fatalf("%s: %q", req, got)
		}
	}
	if got := rdrive(t, rt, "WAL STATUS")[0]; got != "WAL nodes=2 lsn=3 durable=3 segments=2 snapshot_lsn=0 sync=always" {
		t.Fatalf("fleet WAL STATUS after 3 writes = %q", got)
	}
	// Usage errors forward verbatim, same as a direct server.
	if got := rdrive(t, rt, "WAL STATUS EXTRA")[0]; got != "ERR usage: WAL STATUS [SYNC]" {
		t.Fatalf("WAL STATUS EXTRA = %q", got)
	}
}

// TestRouterWALStatusMixedPolicy: a fleet whose nodes disagree on sync
// policy reports sync=mixed rather than inventing a common one.
func TestRouterWALStatusMixedPolicy(t *testing.T) {
	bks := []*testBackend{
		startWALBackend(t, wal.SyncAlways),
		startWALBackend(t, wal.SyncNever),
	}
	rt, _ := testRouter(t, bks, nil)
	got := rdrive(t, rt, "WAL STATUS")[0]
	if got != "WAL nodes=2 lsn=0 durable=0 segments=2 snapshot_lsn=0 sync=mixed" {
		t.Fatalf("mixed-policy fleet WAL STATUS = %q", got)
	}
}

// TestRouterWALStatusDisabledBackend: if any node runs without
// durability, the fleet answer is that node's error — a partial sum
// would overstate what is actually durable.
func TestRouterWALStatusDisabledBackend(t *testing.T) {
	bks := []*testBackend{
		startWALBackend(t, wal.SyncAlways),
		startBackend(t, "db"), // no WAL
	}
	rt, _ := testRouter(t, bks, nil)
	if got := rdrive(t, rt, "WAL STATUS")[0]; got != "ERR wal disabled" {
		t.Fatalf("fleet with wal-less node: %q", got)
	}
}
