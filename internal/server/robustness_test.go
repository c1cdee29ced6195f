package server

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/subsystem"
	"caram/internal/wire"
)

// Tests for the overload-protection and fault-surface layer: connection
// caps, read deadlines, per-connection panic recovery, the SLOWLOG GET
// bound, and the HEALTH command end to end over an ECC-enabled engine.

// eccServer builds a server around one ECC-protected engine and returns
// the slice handle so tests can inject corruption directly.
func eccServer(t *testing.T, indexBits int, idx hash.IndexGenerator) (*Server, *caram.Slice) {
	t.Helper()
	if idx == nil {
		idx = hash.NewMultShift(indexBits)
	}
	sub := subsystem.New(0)
	sl := caram.MustNew(caram.Config{
		IndexBits: indexBits,
		RowBits:   4*(1+64+32) + 8,
		KeyBits:   64,
		DataBits:  32,
		Index:     idx,
		ECC:       true,
	})
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		t.Fatal(err)
	}
	return New(sub), sl
}

// corruptStoredRow flips two stored bits of a row — an uncorrectable
// soft error the next checked fetch must quarantine.
func corruptStoredRow(sl *caram.Slice, idx uint32, a, b int) {
	row := sl.Array().PeekRow(idx)
	row[a>>6] ^= 1 << uint(a&63)
	row[b>>6] ^= 1 << uint(b&63)
}

// startTCP serves srv on an ephemeral loopback listener.
func startTCP(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns ErrServerClosed on cleanup
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// newClient is a wire.Client to addr, closed on cleanup.
func newClient(t *testing.T, addr string) *wire.Client {
	c := wire.NewClient(addr, wire.ClientConfig{})
	t.Cleanup(c.Close)
	return c
}

// dialT dials raw, with a test-scoped overall deadline so a hung server
// fails the test instead of the run: for the tests that hold a
// connection open without a request, trickle a partial one, or read
// the bytes that end one — what a wire.Client never does.
func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestConnLimitShedsWithBusy: beyond the cap a connection gets one
// "ERR BUSY" line and an immediate close; capacity freed by a closing
// connection is reusable.
func TestConnLimitShedsWithBusy(t *testing.T) {
	srv, _ := eccServer(t, 6, nil)
	srv.lim.MaxConns = 1 // as WithLimits(wire.Limits{MaxConns: 1}) would set
	addr := startTCP(t, srv)

	first := newClient(t, addr)
	if line, err := first.Do("ENGINES"); line != "ENGINES db" {
		t.Fatalf("first connection not served: %q, %v", line, err)
	}

	shed := dialT(t, addr)
	sr := bufio.NewReader(shed)
	line, err := sr.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ERR BUSY" {
		t.Fatalf("over-cap connection: got %q, %v; want ERR BUSY", line, err)
	}
	if _, err := sr.ReadString('\n'); err == nil {
		t.Fatal("shed connection stayed open after ERR BUSY")
	}

	// Releasing the slot readmits: close the first conn, then retry
	// until its handler has noticed and decremented the gauge.
	first.Close()
	retry := newClient(t, addr)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		line, err := retry.Do("ENGINES")
		if line == "ENGINES db" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released; last reply %q, %v", line, err)
		}
	}
}

// TestIdleTimeoutHangsUp: a connection that never starts a request is
// hung up on with "ERR timeout" once the idle deadline passes.
func TestIdleTimeoutHangsUp(t *testing.T) {
	srv, _ := eccServer(t, 6, nil)
	srv.lim = wire.Limits{IdleTimeout: 100 * time.Millisecond}
	addr := startTCP(t, srv)

	conn := dialT(t, addr)
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ERR timeout" {
		t.Fatalf("idle connection: got %q, %v; want ERR timeout", line, err)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after idle timeout")
	}
}

// TestReadTimeoutCutsSlowLoris: once a request has started arriving,
// the per-read deadline governs — a client trickling a partial line
// draws "ERR timeout", and the partial line is never executed.
func TestReadTimeoutCutsSlowLoris(t *testing.T) {
	srv, _ := eccServer(t, 6, nil)
	srv.lim = wire.Limits{ReadTimeout: 80 * time.Millisecond, IdleTimeout: 5 * time.Second}
	addr := startTCP(t, srv)

	conn := dialT(t, addr)
	// A partial request, then silence: the idle deadline admits the
	// first bytes, the read deadline must cut the stall.
	if _, err := conn.Write([]byte("SEARCH db ")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ERR timeout" {
		t.Fatalf("slow-loris connection: got %q, %v; want ERR timeout", line, err)
	}
	if strings.Contains(line, "usage") {
		t.Fatalf("partial line was executed: %q", line)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after read timeout")
	}
}

// TestSlowlogGetBounded: SLOWLOG GET n rejects absurd n with a clean
// error and accepts everything up to the bound.
func TestSlowlogGetBounded(t *testing.T) {
	srv := testServer(t)
	resp := drive(t, srv,
		"SLOWLOG GET 1048576",
		"SLOWLOG GET 1048577",
		"SLOWLOG GET 99999999999999999999", // overflows int: bad-number usage path
	)
	if !strings.HasPrefix(resp[0], "SLOWLOG n=") {
		t.Errorf("GET at bound: %q", resp[0])
	}
	if resp[1] != "ERR slowlog: n too large" {
		t.Errorf("GET beyond bound: %q", resp[1])
	}
	if !strings.HasPrefix(resp[2], "ERR usage: SLOWLOG") {
		t.Errorf("GET overflow: %q", resp[2])
	}
}

// TestHealthCommand drives the HEALTH surface end to end: healthy
// zeros, quarantine-driven degradation with MISS! on the wire, scrub
// recovery, and the malformed forms.
func TestHealthCommand(t *testing.T) {
	srv, sl := eccServer(t, 6, nil)
	resp := drive(t, srv,
		"HEALTH",
		"HEALTH db",
		"HEALTH nope",
		"HEALTH db BOGUS",
		"HEALTH db SCRUB extra",
		"INSERT db dead 42",
	)
	if resp[0] != "HEALTH db=healthy" {
		t.Errorf("HEALTH: %q", resp[0])
	}
	if resp[1] != "HEALTH engine=db state=healthy quarantined=0 corrected=0 uncorrectable=0 read_errors=0 scrubs=0 scrub_bits=0" {
		t.Errorf("HEALTH db: %q", resp[1])
	}
	if !strings.HasPrefix(resp[2], "ERR subsystem: no engine") {
		t.Errorf("HEALTH nope: %q", resp[2])
	}
	for i := 3; i <= 4; i++ {
		if resp[i] != "ERR usage: HEALTH [engine [SCRUB]]" {
			t.Errorf("malformed HEALTH %d: %q", i, resp[i])
		}
	}

	corruptStoredRow(sl, sl.Index(bitutil.FromUint64(0xdead)), 3, 97)
	resp = drive(t, srv,
		"SEARCH db dead",
		"HEALTH",
		"HEALTH db",
		"SEARCH db beef",
	)
	if resp[0] != "MISS!" {
		t.Errorf("search over quarantined row: %q", resp[0])
	}
	if resp[1] != "HEALTH db=degraded" {
		t.Errorf("HEALTH after quarantine: %q", resp[1])
	}
	if !strings.Contains(resp[2], "state=degraded quarantined=1") ||
		!strings.Contains(resp[2], "uncorrectable=1") {
		t.Errorf("HEALTH db after quarantine: %q", resp[2])
	}
	if resp[3] != "MISS" { // other rows still answer cleanly
		t.Errorf("clean miss while degraded: %q", resp[3])
	}

	resp = drive(t, srv,
		"HEALTH db SCRUB",
		"HEALTH db",
		"SEARCH db dead",
	)
	if resp[0] != "OK scrub engine=db rows=1 bits=2 released=1" {
		t.Errorf("HEALTH db SCRUB: %q", resp[0])
	}
	if !strings.Contains(resp[1], "state=healthy quarantined=0") {
		t.Errorf("HEALTH db after scrub: %q", resp[1])
	}
	if resp[2] != "HIT 0:0000000000000042" {
		t.Errorf("record not restored by scrub: %q", resp[2])
	}
}

// TestFailedEngineOnTheWire: with a 4-row engine one quarantined row
// trips the default circuit breaker (1/4 >= 0.25); every command fails
// fast, MSEARCH slots answer ERR:unavailable, and HEALTH <engine> SCRUB
// is the wire-level recovery path.
func TestFailedEngineOnTheWire(t *testing.T) {
	srv, sl := eccServer(t, 2, hash.LowBits(2))
	resp := drive(t, srv, "INSERT db 1 aa")
	if resp[0] != "OK" {
		t.Fatalf("insert: %q", resp[0])
	}
	corruptStoredRow(sl, 1, 3, 97)
	resp = drive(t, srv,
		"SEARCH db 1", // detection: quarantines row 1, health -> failed
		"SEARCH db 2",
		"INSERT db 3 bb",
		"DELETE db 2",
		"MSEARCH db 2 db 3",
		"HEALTH db",
		"HEALTH db SCRUB",
		"HEALTH db",
		"SEARCH db 1",
	)
	if resp[0] != "MISS!" {
		t.Errorf("detection search: %q", resp[0])
	}
	for i := 1; i <= 3; i++ {
		if resp[i] != "ERR subsystem: engine unavailable" {
			t.Errorf("op %d on failed engine: %q", i, resp[i])
		}
	}
	if resp[4] != "MRESULTS ERR:unavailable ERR:unavailable" {
		t.Errorf("MSEARCH on failed engine: %q", resp[4])
	}
	if !strings.Contains(resp[5], "state=failed quarantined=1") {
		t.Errorf("HEALTH on failed engine: %q", resp[5])
	}
	if resp[6] != "OK scrub engine=db rows=1 bits=2 released=1" {
		t.Errorf("scrub: %q", resp[6])
	}
	if !strings.Contains(resp[7], "state=healthy") {
		t.Errorf("HEALTH after scrub: %q", resp[7])
	}
	if resp[8] != "HIT 0:00000000000000aa" {
		t.Errorf("record after recovery: %q", resp[8])
	}
}
