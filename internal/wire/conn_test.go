package wire

import (
	"bufio"
	"errors"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

var errTestClosed = errors.New("test endpoint closed")

// echoSession answers every line on the spot with "ECHO <line>" and
// panics on a line that says so.
type echoSession struct{}

func (echoSession) Request(out, line []byte) ([]byte, bool) {
	if string(line) == "boom" {
		panic("injected session panic")
	}
	return append(append(append(out, "ECHO "...), line...), '\n'), false
}

func (echoSession) Settle(out []byte) []byte { return out }

// lockedBuf lets the test read a log the endpoint's goroutines write.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func serveEcho(t *testing.T, e *Endpoint, lim Limits) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go e.Serve(l, lim, func(r io.Reader, w io.Writer) { e.Handle(r, w, echoSession{}) }) //nolint:errcheck
	t.Cleanup(func() { e.Close() })
	return l.Addr().String()
}

func dialEcho(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c)
}

// TestSessionPanicCostsOneConnection: a session that panics on the
// second line of a burst forfeits that connection — including the first
// line's reply, which was buffered, not yet flushed — and nothing else:
// one Error log line, the other connections and the accept loop live
// on, and no later connection is handed the dead one's reply bytes.
func TestSessionPanicCostsOneConnection(t *testing.T) {
	logBuf := &lockedBuf{}
	e := NewEndpoint(errTestClosed, slog.New(slog.NewTextHandler(logBuf, nil)))
	addr := serveEcho(t, e, Limits{})

	ask := func(c net.Conn, r *bufio.Reader, req string) {
		t.Helper()
		if _, err := c.Write([]byte(req + "\n")); err != nil {
			t.Fatal(err)
		}
		if line, err := r.ReadString('\n'); err != nil || line != "ECHO "+req+"\n" {
			t.Fatalf("%s: got %q, %v", req, line, err)
		}
	}
	healthy, hr := dialEcho(t, addr)
	ask(healthy, hr, "before")

	victim, vr := dialEcho(t, addr)
	if _, err := victim.Write([]byte("lost\nboom\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := vr.ReadString('\n'); err == nil {
		t.Fatalf("panicking connection produced a reply: %q", line)
	}

	ask(healthy, hr, "after")
	for i := 0; i < 4; i++ { // enough fresh connections to draw whatever the pool holds
		fresh, fr := dialEcho(t, addr)
		ask(fresh, fr, "fresh")
	}
	if n := strings.Count(logBuf.String(), "connection handler panic"); n != 1 {
		t.Fatalf("want exactly 1 panic log line, got %d in:\n%s", n, logBuf.String())
	}
}

// TestEndpointCloseLifecycle: Close reports "first" exactly once, a
// Serve racing or following it returns the endpoint's closed error and
// closes the listener it was handed.
func TestEndpointCloseLifecycle(t *testing.T) {
	e := NewEndpoint(errTestClosed, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- e.Serve(l, Limits{}, func(io.Reader, io.Writer) {}) }()
	if !e.Close() {
		t.Fatal("first Close did not report first")
	}
	if e.Close() {
		t.Fatal("second Close reported first")
	}
	if err := <-served; err != errTestClosed {
		t.Fatalf("Serve returned %v, want the closed error", err)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Serve(l2, Limits{}, nil); err != errTestClosed {
		t.Fatalf("Serve after Close returned %v", err)
	}
	if _, err := l2.Accept(); err == nil {
		t.Fatal("Serve after Close left its listener open")
	}
}
