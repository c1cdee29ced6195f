package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/wire"
)

// The connection lifecycle is internal/wire's Endpoint in both tiers.
// These tests hold the router to what that buys it — it drains like the
// server, a panic costs one connection and poisons nothing — and hold
// the two tiers to each other on every way a connection can end.

func serveRouter(t *testing.T, rt *Router) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck // returns ErrRouterClosed
	return l.Addr().String()
}

// TestRouterCloseDrainsInflightBurst: Close fired while a pipelined
// burst is already read and forwarded — the backend is slow to answer —
// must still deliver every reply, in order, and return only after they
// were written. (The router used to hard-close its client connections:
// 0 replies, EOF.) The client is a raw socket: the EOF that follows the
// replies is under test.
func TestRouterCloseDrainsInflightBurst(t *testing.T) {
	fb := startFakeBackend(t, func(_, _ int, line string) (string, bool) {
		time.Sleep(150 * time.Millisecond)
		return echo(line), false
	})
	rt, _ := testRouter(t, []*testBackend{{addr: fb.addr}}, nil)
	conn, err := net.Dial("tcp", serveRouter(t, rt))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := []string{"INSERT db 1 aa", "INSERT db 2 bb"}
	if _, err := conn.Write([]byte(strings.Join(burst, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	// Once the backend has a line, the handler has read and forwarded the
	// burst and is waiting on the replies.
	for deadline := time.Now().Add(5 * time.Second); len(fb.received()) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("burst never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has returned, so the replies are already in the socket.
	conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	for i, req := range burst {
		if line, err := br.ReadString('\n'); err != nil || line != echo(req)+"\n" {
			t.Fatalf("reply %d after Close = %q, %v; want %q", i+1, line, err, echo(req))
		}
	}
	if line, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("connection outlived the drain: %q, %v", line, err)
	}
}

// TestRouterCloseDrainsAckedWrites is the same drain over two real
// backends with Close racing the burst: however much of it the router
// had read when the nudge came (what it had not is dropped with the
// socket, which may reset it), every reply the client got is an OK, and
// every OK is a record a direct SEARCH on the owning backend finds.
func TestRouterCloseDrainsAckedWrites(t *testing.T) {
	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, _ := testRouter(t, bks, nil)
	client := newClient(t, serveRouter(t, rt))
	// One round trip first: the connection is in service, not in the
	// accept backlog, when Close comes.
	if line, err := client.Do("SEARCH db 1"); err != nil || line != "MISS" {
		t.Fatalf("warm-up: %q, %v", line, err)
	}
	const n = 64
	burst := wire.NewBatch()
	calls := make([]wire.Call, n)
	for i := range calls {
		calls[i] = burst.Add(fmt.Sprintf("INSERT db %x %x", i+1, 0x100+i+1))
	}
	client.Submit(burst)
	closed := make(chan error, 1)
	go func() { closed <- rt.Close() }()
	acked := 0
	for ; acked < n; acked++ {
		line, err := calls[acked].Wait()
		if err != nil {
			break // the hang-up, or a reset when part of the burst went unread
		}
		if string(line) != "OK" {
			t.Fatalf("reply %d = %q, want OK", acked+1, line)
		}
	}
	burst.Release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= acked; i++ {
		owner := bks[rt.owner("db", fmt.Sprintf("%x", i))]
		want := fmt.Sprintf("HIT 0:%016x", 0x100+i)
		if got := owner.srv.Exec(fmt.Sprintf("SEARCH db %x", i)); got != want {
			t.Errorf("acked INSERT %d: owner answers %q, want %q", i, got, want)
		}
	}
	t.Logf("%d of %d writes acked before the hang-up", acked, n)
}

// panicReader hands out its data once and panics on the next Read.
type panicReader struct{ data string }

func (p *panicReader) Read(b []byte) (int, error) {
	if p.data == "" {
		panic("injected transport panic")
	}
	n := copy(b, p.data)
	p.data = p.data[n:]
	return n, nil
}

// TestRouterPanicDoesNotPoisonNextConnection: a handler that panics
// with a half-filled batch must take its connection state with it. The
// next connection sends only a SEARCH: it must MISS, and the backend
// must never see the dead client's unsent INSERT. (The deferred pool
// return used to recycle the rconn, batch and all: HIT ...42.)
func TestRouterPanicDoesNotPoisonNextConnection(t *testing.T) {
	bk := startBackend(t, "db")
	rt, _ := testRouter(t, []*testBackend{bk}, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("handler did not panic")
			}
		}()
		rt.Handle(&panicReader{data: "INSERT db dead 42\nSEARCH db de"}, io.Discard)
	}()
	for i := 0; i < 4; i++ { // whatever the pool hands out next
		if got := rdrive(t, rt, "SEARCH db dead")[0]; got != "MISS" {
			t.Fatalf("connection %d after the panic: SEARCH db dead = %q, want MISS", i, got)
		}
	}
	if got := bk.srv.Exec("SEARCH db dead"); got != "MISS" {
		t.Fatalf("backend saw the dead client's INSERT: %q", got)
	}
}

// read is one Read of a scripted connection: run before (if set), then
// deliver data, or fail with err.
type read struct {
	before func(c *scriptConn)
	data   string
	err    error
}

// scriptConn is a net.Conn whose reads are scripted (EOF when they run
// out) and whose writes are recorded one entry per Write, so a test sees
// where each burst was flushed. failWrites makes the write side dead.
type scriptConn struct {
	reads      []read
	failWrites bool
	nudged     chan struct{} // closed by the first SetReadDeadline: the Close nudge
	done       chan struct{} // closed by Close: the handler is finished
	writes     []string      // the handler's alone until done closes
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.reads) > 0 {
		r := &c.reads[0]
		if r.before != nil {
			r.before(c)
			r.before = nil
		}
		if r.data != "" {
			n := copy(p, r.data)
			r.data = r.data[n:]
			return n, nil
		}
		c.reads = c.reads[1:]
		if r.err != nil {
			return 0, r.err
		}
	}
	return 0, io.EOF
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, string(p))
	if c.failWrites {
		return 0, errors.New("write side gone")
	}
	return len(p), nil
}

func (c *scriptConn) SetReadDeadline(time.Time) error {
	select {
	case <-c.nudged:
	default:
		close(c.nudged)
	}
	return nil
}

func (c *scriptConn) Close() error                     { close(c.done); return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// oneConnListener yields one connection, then blocks until closed.
type oneConnListener struct {
	conn   chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *oneConnListener) Addr() net.Addr { return &net.TCPAddr{} }

// tier is one serving tier under the conformance table: how to serve
// it, how to close it, and a side door to the records behind it.
type tier struct {
	serve  func(net.Listener) error
	close  func() error
	direct func(req string) string
}

func conformanceTiers(t *testing.T) map[string]tier {
	sub := subsystem.New(0)
	exactEngine(t, sub, "db")
	srv := server.New(sub)
	t.Cleanup(func() { srv.Close() })
	bk := startBackend(t, "db")
	rt, _ := testRouter(t, []*testBackend{bk}, nil)
	tiers := map[string]tier{
		"server": {srv.Serve, srv.Close, srv.Exec},
		"router": {rt.Serve, rt.Close, bk.srv.Exec},
	}
	for _, tr := range tiers {
		if got := tr.direct("INSERT db 1 aa"); got != "OK" {
			t.Fatalf("preload: %q", got)
		}
	}
	return tiers
}

// TestConnectionConformance runs the same connection scripts — every
// way a connection can end — through a served Server and a served
// Router over one backend holding the same records: what each writes,
// and where it cuts its writes, must be identical, byte for byte.
func TestConnectionConformance(t *testing.T) {
	const hit1 = "HIT 0:00000000000000aa\n"
	timeout := os.ErrDeadlineExceeded
	scripts := []struct {
		name       string
		reads      func(tr tier) []read
		failWrites bool
		want       []string          // one entry per Write
		after      map[string]string // direct request -> reply, once the handler is done
	}{
		{
			name: "oversized line mid-burst",
			reads: func(tier) []read {
				return []read{{data: "SEARCH db 1\nINSERT db 2 bb\n" + strings.Repeat("x", wire.MaxLineBytes+1) + "\nINSERT db 3 cc\n"}}
			},
			want:  []string{hit1 + "OK\n" + wire.ReplyTooLong + "\n"},
			after: map[string]string{"SEARCH db 2": "HIT 0:00000000000000bb", "SEARCH db 3": "MISS"},
		},
		{
			name:  "unterminated final request at EOF",
			reads: func(tier) []read { return []read{{data: "INSERT db 2 bb\nSEARCH db 1"}} },
			want:  []string{"OK\n" + hit1},
		},
		{
			name:  "EOF between bursts",
			reads: func(tier) []read { return []read{{data: "SEARCH db 1\nSEARCH db 9\n"}, {data: "SEARCH db 1\n"}} },
			want:  []string{hit1 + "MISS\n", hit1},
		},
		{
			name: "transport read error after a complete line",
			reads: func(tier) []read {
				return []read{{data: "SEARCH db 1\nSEARCH db"}, {err: errors.New("cable cut")}}
			},
			want: []string{hit1 + "ERR usage: SEARCH <engine> <key> [mask]\n" + wire.ReplyReadErr + "cable cut\n"},
		},
		{
			name:       "write side gone mid-burst",
			reads:      func(tier) []read { return []read{{data: "SEARCH db 1\n"}, {data: "INSERT db 2 bb\n"}} },
			failWrites: true,
			want:       []string{hit1},
			after:      map[string]string{"SEARCH db 2": "MISS"}, // the second burst was never consumed
		},
		{
			name: "deadline expiry mid-request",
			reads: func(tier) []read {
				return []read{{data: "SEARCH db 1\nINSERT db 2 b"}, {err: timeout}}
			},
			want:  []string{hit1 + wire.ReplyTimeout + "\n"},
			after: map[string]string{"SEARCH db 2": "MISS"}, // the partial line was not executed
		},
		{
			name: "nudge with requests still buffered",
			reads: func(tr tier) []read {
				// Close arrives while the burst sits unread in the socket:
				// the handler still reads, executes and answers it, then
				// meets the expired deadline and hangs up without a word.
				shutdown := func(c *scriptConn) {
					go tr.close() //nolint:errcheck
					<-c.nudged
				}
				return []read{{before: shutdown, data: "INSERT db 2 bb\nSEARCH db 2\n"}, {err: timeout}}
			},
			want: []string{"OK\nHIT 0:00000000000000bb\n"},
		},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			for name, tr := range conformanceTiers(t) {
				conn := &scriptConn{
					reads:      sc.reads(tr),
					failWrites: sc.failWrites,
					nudged:     make(chan struct{}),
					done:       make(chan struct{}),
				}
				l := &oneConnListener{conn: make(chan net.Conn, 1), closed: make(chan struct{})}
				l.conn <- conn
				go tr.serve(l) //nolint:errcheck
				select {
				case <-conn.done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: handler never finished", name)
				}
				if !reflect.DeepEqual(conn.writes, sc.want) {
					t.Errorf("%s wrote %q, want %q", name, conn.writes, sc.want)
				}
				for req, want := range sc.after {
					if got := tr.direct(req); got != want {
						t.Errorf("%s: %s afterwards = %q, want %q", name, req, got, want)
					}
				}
				if err := tr.close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		})
	}
}
