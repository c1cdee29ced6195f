package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"caram/internal/wire"
)

// Batch failure semantics, deterministically: scripted backends that
// die, shed, or desync at a chosen line, and per-op assertions on what
// the client of the router then sees.

// fakeBackend is a scripted line server. For every request line it
// calls script(conn, n, line) — conn counts accepted connections from
// 0, n counts lines on that connection from 0 — writes the returned
// reply ("" = none; it may hold several lines) and, when hangup is
// true, closes the connection. It records every line it received.
type fakeBackend struct {
	addr   string
	script func(conn, n int, line string) (reply string, hangup bool)
	hungup chan int // connection ordinals, as each one's read side ends

	mu    sync.Mutex
	lines []string
}

func startFakeBackend(t testing.TB, script func(conn, n int, line string) (string, bool)) *fakeBackend {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fb := &fakeBackend{addr: l.Addr().String(), script: script, hungup: make(chan int, 64)}
	go func() {
		for conn := 0; ; conn++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go fb.serve(c, conn)
		}
	}()
	return fb
}

func (fb *fakeBackend) serve(c net.Conn, conn int) {
	defer c.Close()
	defer func() { fb.hungup <- conn }()
	br := bufio.NewReader(c)
	for n := 0; ; n++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimSuffix(line, "\n")
		fb.mu.Lock()
		fb.lines = append(fb.lines, line)
		fb.mu.Unlock()
		reply, hangup := fb.script(conn, n, line)
		if reply != "" {
			if _, err := c.Write([]byte(reply + "\n")); err != nil {
				return
			}
		}
		if hangup {
			return
		}
	}
}

func (fb *fakeBackend) received() []string {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return append([]string(nil), fb.lines...)
}

// echo is the self-validating reply: a reply that names its request
// cannot be attributed to a neighbour without the test seeing it.
func echo(line string) string { return "ECHO " + line }

// burst6 is one client burst for a single backend: idempotent reads and
// writes interleaved, so every failed tail holds both kinds.
var burst6 = []string{
	"SEARCH db 1", "INSERT db 2 2", "SEARCH db 3", "DELETE db 4", "SEARCH db 5", "SEARCH db 6",
}

// TestBatchPartialFailure: the backend answers k of the burst's n
// lines and then closes. Replies up to k are the backend's, byte-exact;
// in the failed tail each idempotent read retries on its own and is
// answered by the restarted backend, each write sheds ERR unavailable;
// the counters move by exactly that much. With Retries 0 nothing is
// resubmitted: the reads of the tail shed ERR unavailable too, and a
// negative Retries is refused.
func TestBatchPartialFailure(t *testing.T) {
	n := len(burst6)
	for _, tc := range []struct{ k, retries int }{{0, 2}, {1, 2}, {n - 1, 2}, {1, 0}} {
		k := tc.k
		name := fmt.Sprintf("k=%d", k)
		if tc.retries != 2 {
			name += fmt.Sprintf(",retries=%d", tc.retries)
		}
		t.Run(name, func(t *testing.T) {
			fb := startFakeBackend(t, func(conn, i int, line string) (string, bool) {
				if conn > 0 { // the restarted backend answers everything
					return echo(line), false
				}
				// Read the whole batch before hanging up: a close with
				// unread input would reset the connection instead.
				if i < k {
					return echo(line), i == n-1
				}
				return "", i == n-1
			})
			rt, rm := testRouter(t, []*testBackend{{addr: fb.addr}}, func(cfg *RouterConfig) {
				cfg.Conns = 1
				cfg.Retries = tc.retries
				cfg.BreakerThreshold = 100 // one connection death must not trip it
			})
			got := rdrive(t, rt, burst6...)
			var retried []string
			for i, req := range burst6 {
				want := echo(req)
				if i >= k && (tc.retries == 0 || !strings.HasPrefix(req, "SEARCH")) {
					want = "ERR unavailable"
				} else if i >= k {
					retried = append(retried, req)
				}
				if got[i] != want {
					t.Errorf("op %d %q: reply %q, want %q", i, req, got[i], want)
				}
			}
			// The dying connection saw the burst once, in order; after it
			// only the retried reads arrive, one by one, in request order.
			wantLines := append(append([]string(nil), burst6...), retried...)
			if lines := fb.received(); strings.Join(lines, "\n") != strings.Join(wantLines, "\n") {
				t.Errorf("backend received %q, want %q", lines, wantLines)
			}
			m := rm.Backend(0)
			if m.Retries() != uint64(len(retried)) {
				t.Errorf("retries = %d, want %d (one per idempotent op of the failed tail)", m.Retries(), len(retried))
			}
			if m.Errs() != uint64(n-k) {
				t.Errorf("errors = %d, want %d (the unanswered lines of the batch)", m.Errs(), n-k)
			}
			if m.Ops() != uint64(n+len(retried)) || m.Inflight() != 0 {
				t.Errorf("ops = %d inflight = %d, want %d and 0", m.Ops(), m.Inflight(), n+len(retried))
			}
			if rt.Pool(0).BreakerOpen() || m.BreakerOpen() {
				t.Error("breaker opened on a single connection death below the threshold")
			}
			if tc.retries == 0 {
				if _, err := NewRouter(RouterConfig{Backends: []Backend{{Label: "b0", Addr: fb.addr}}, Retries: -1}); err == nil {
					t.Error("NewRouter accepted Retries -1")
				}
			}
		})
	}
}

// TestBatchFailureTripsBreaker: the same death with a threshold of one
// opens the breaker, so the tail's retries shed fast instead of
// reaching the backend — one retry counted per idempotent op, one trip.
func TestBatchFailureTripsBreaker(t *testing.T) {
	fb := startFakeBackend(t, func(conn, i int, line string) (string, bool) {
		if i == 0 {
			return echo(line), false
		}
		return "", i == len(burst6)-1
	})
	rt, rm := testRouter(t, []*testBackend{{addr: fb.addr}}, func(cfg *RouterConfig) {
		cfg.Conns = 1
		cfg.Retries = 2
		cfg.BreakerThreshold = 1
		cfg.BreakerBackoff = time.Minute
	})
	got := rdrive(t, rt, burst6...)
	if got[0] != echo(burst6[0]) {
		t.Errorf("op 0: %q, want the one reply the backend sent", got[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i] != "ERR unavailable" {
			t.Errorf("op %d %q: %q, want ERR unavailable behind the open breaker", i, burst6[i], got[i])
		}
	}
	if lines := fb.received(); len(lines) != len(burst6) {
		t.Errorf("backend received %d lines, want only the original %d: %q", len(lines), len(burst6), lines)
	}
	m := rm.Backend(0)
	if m.Retries() != 3 { // SEARCH 3, 5, 6
		t.Errorf("retries = %d, want 3", m.Retries())
	}
	if !rt.Pool(0).BreakerOpen() || !m.BreakerOpen() {
		t.Error("breaker not open after a failure at threshold 1")
	}
}

// TestBatchBusyShed: a backend that sheds the connection with ERR BUSY
// fails the whole batch unavailable — the shed line is never served as
// anyone's reply, and unavailable is not retried.
func TestBatchBusyShed(t *testing.T) {
	fb := startFakeBackend(t, func(conn, i int, line string) (string, bool) {
		if i == 0 {
			return "ERR BUSY", false // then keep reading until the router hangs up
		}
		return "", false
	})
	rt, rm := testRouter(t, []*testBackend{{addr: fb.addr}}, func(cfg *RouterConfig) {
		cfg.Conns = 1
		cfg.BreakerThreshold = 100
	})
	for i, r := range rdrive(t, rt, burst6...) {
		if r != "ERR unavailable" {
			t.Errorf("op %d %q: %q, want ERR unavailable", i, burst6[i], r)
		}
	}
	m := rm.Backend(0)
	if m.Retries() != 0 || m.Errs() != uint64(len(burst6)) {
		t.Errorf("retries = %d errors = %d, want 0 and %d", m.Retries(), m.Errs(), len(burst6))
	}
}

// TestBatchUnsolicitedLine: a backend that sends a line nobody asked
// for has desynced the pipeline. The router kills the connection; the
// extra line is never attributed to a request — the next burst, on a
// fresh connection, gets exactly its own replies.
func TestBatchUnsolicitedLine(t *testing.T) {
	n := len(burst6)
	fb := startFakeBackend(t, func(conn, i int, line string) (string, bool) {
		if conn == 0 && i == n-1 {
			return echo(line) + "\nECHO nobody asked", false
		}
		return echo(line), false
	})
	rt, rm := testRouter(t, []*testBackend{{addr: fb.addr}}, func(cfg *RouterConfig) {
		cfg.Conns = 1
		cfg.BreakerThreshold = 100
	})
	for round := 0; round < 2; round++ {
		for i, r := range rdrive(t, rt, burst6...) {
			if r != echo(burst6[i]) {
				t.Errorf("round %d op %d %q: reply %q, want %q", round, i, burst6[i], r, echo(burst6[i]))
			}
		}
		if round == 0 {
			select {
			case conn := <-fb.hungup: // the router dropped the desynced connection
				if conn != 0 {
					t.Fatalf("connection %d hung up, want 0", conn)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("router kept a connection that sent an unsolicited line")
			}
		}
	}
	if m := rm.Backend(0); m.Retries() != 0 || m.Errs() != 0 {
		t.Errorf("retries = %d errors = %d, want 0 and 0: the desync hit no request", m.Retries(), m.Errs())
	}
}

// TestRouterInBurstOrdering: one client's pipelined burst reaches a
// backend in the order it was sent, writes and reads alike — the
// lane-sticky FIFO contract, now carried by one batch.
func TestRouterInBurstOrdering(t *testing.T) {
	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, _ := testRouter(t, bks, nil)
	var reqs, want []string
	for k := 1; k <= 32; k++ {
		reqs = append(reqs,
			fmt.Sprintf("INSERT db %x %x", k, k),
			fmt.Sprintf("SEARCH db %x", k),
			fmt.Sprintf("DELETE db %x", k),
			fmt.Sprintf("SEARCH db %x", k))
		want = append(want, "OK", fmt.Sprintf("HIT 0:%016x", k), "OK", "MISS")
	}
	for i, r := range rdrive(t, rt, reqs...) {
		if r != want[i] {
			t.Errorf("%q: reply %q, want %q", reqs[i], r, want[i])
		}
	}
}

// TestRouterConcurrentBurstsStress: many clients pipelining bursts
// through one connection per backend — every batch shares its lane's
// writer, FIFO and reader with the other clients' — must each get
// exactly their own replies, in order, and the writes must coalesce.
func TestRouterConcurrentBurstsStress(t *testing.T) {
	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, rm := testRouter(t, bks, func(cfg *RouterConfig) { cfg.Conns = 1 })
	const keys, clients, bursts, depth = 128, 8, 60, 16
	load := make([]string, keys)
	for k := range load {
		load[k] = fmt.Sprintf("INSERT db %x %x", k+1, k+1)
	}
	for i, r := range rdrive(t, rt, load...) {
		if r != "OK" {
			t.Fatalf("%s: %q", load[i], r)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient(t, l.Addr().String())
			calls := make([]wire.Call, depth)
			for b := 0; b < bursts; b++ {
				burst := wire.NewBatch()
				for i := range calls {
					calls[i] = burst.Add(fmt.Sprintf("SEARCH db %x", (c*31+b*depth+i)%keys+1))
				}
				client.Submit(burst)
				for i, call := range calls {
					line, err := call.Wait()
					want := fmt.Sprintf("HIT 0:%016x", (c*31+b*depth+i)%keys+1)
					if err != nil || string(line) != want {
						t.Errorf("client %d burst %d line %d: %q %v, want %q", c, b, i, line, err, want)
						return
					}
				}
				burst.Release()
			}
		}(c)
	}
	wg.Wait()
	for b := range bks {
		if _, mean := rm.Backend(b).Bursts(); mean <= 1 {
			t.Errorf("backend %d: mean burst %.2f lines per write: batches did not carry their lines", b, mean)
		}
		if rm.Backend(b).Errs() != 0 || rm.Backend(b).Inflight() != 0 {
			t.Errorf("backend %d: errors %d inflight %d", b, rm.Backend(b).Errs(), rm.Backend(b).Inflight())
		}
	}
}
