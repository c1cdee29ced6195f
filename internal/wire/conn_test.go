package wire

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
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

// newClient is a Client the test closes on cleanup.
func newClient(t testing.TB, addr string, hook ClientHook) *Client {
	c := NewClient(addr, ClientConfig{Hook: hook})
	t.Cleanup(c.Close)
	return c
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

	ask := func(c *Client, req string) {
		t.Helper()
		if line, err := c.Do(req); err != nil || line != "ECHO "+req {
			t.Fatalf("%s: got %q, %v", req, line, err)
		}
	}
	healthy := newClient(t, addr, nil)
	ask(healthy, "before")

	lost := NewBatch().Add("lost")
	lost.b.Add("boom")
	newClient(t, addr, nil).Submit(lost.b)
	if line, err := lost.Wait(); err == nil {
		t.Fatalf("panicking connection produced a reply: %q", line)
	}
	lost.Release()

	ask(healthy, "after")
	for i := 0; i < 4; i++ { // enough fresh connections to draw whatever the pool holds
		ask(newClient(t, addr, nil), "fresh")
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
