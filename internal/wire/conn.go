package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Session is a tier's half of one connection: what a request line
// means there. The Endpoint owns everything else — the socket, the read
// buffer, the reply buffer, when a burst is flushed and how the
// connection ends.
type Session interface {
	// Request takes one request line — terminator trimmed, a view into
	// the connection's read buffer (see "Field lifetime") — and appends
	// to out whatever of its reply is already known. full asks for the
	// burst to be settled and flushed now although more complete
	// requests are buffered.
	Request(out, line []byte) (_ []byte, full bool)
	// Settle runs before every flush: it appends, in request order, the
	// replies the burst still owes. A tier that answers inside Request
	// returns out unchanged.
	Settle(out []byte) []byte
}

// Limits is the overload protection one Serve call arms; the zero value
// arms none.
type Limits struct {
	MaxConns    int           // concurrently served connections; beyond it an accept is shed with ERR BUSY (0 = unlimited)
	ReadTimeout time.Duration // per-read deadline once a request has started arriving (0 = none)
	IdleTimeout time.Duration // deadline for the start of the next request (0 = none)
}

// Endpoint is a serving tier's connection lifecycle, written once for
// the server and the router: the listener and connection registry, the
// accept loop with its load shed and panic fence, the deadline-armed
// reader, the burst read loop and the graceful drain.
type Endpoint struct {
	errClosed error        // what Serve returns after Close
	log       *slog.Logger // nil = no logging
	active    atomic.Int32 // connections currently served (conn-limit bookkeeping)

	// closed flips (under mu) at the start of Close, so connection
	// readers stop re-arming deadlines and the shutdown nudge reads as
	// "drain and hang up", not "ERR timeout".
	closed    atomic.Bool
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	handlers  sync.WaitGroup // accept loops + connection handlers
}

// NewEndpoint builds an endpoint whose Serve returns errClosed once it
// is closed. log gets the connection lifecycle at Debug and handler
// panics at Error; nil disables logging.
func NewEndpoint(errClosed error, log *slog.Logger) *Endpoint {
	return &Endpoint{
		errClosed: errClosed,
		log:       log,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections until the listener closes or the endpoint
// is shut down with Close, running handle — the tier's Handle — on each
// in its own goroutine. Every handler runs under a panic recovery: a
// handler bug tears down that one connection and never the process.
func (e *Endpoint) Serve(l net.Listener, lim Limits, handle func(io.Reader, io.Writer)) error {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		l.Close()
		return e.errClosed
	}
	e.listeners[l] = struct{}{}
	e.handlers.Add(1)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.listeners, l)
		e.mu.Unlock()
		e.handlers.Done()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if e.closed.Load() {
				return e.errClosed
			}
			return err
		}
		if !e.admit(lim.MaxConns) {
			// Over the connection cap: shed the load with one line and
			// move on — no handler goroutine, no map entry, no buffers.
			conn.Write([]byte(ReplyBusy + "\n")) //nolint:errcheck // best-effort courtesy reply
			conn.Close()
			e.debug("connection shed", conn)
			continue
		}
		e.mu.Lock()
		if e.closed.Load() {
			e.mu.Unlock()
			conn.Close()
			e.active.Add(-1)
			return e.errClosed
		}
		e.conns[conn] = struct{}{}
		e.handlers.Add(1)
		e.mu.Unlock()
		e.debug("connection accepted", conn)
		go func() {
			defer func() {
				// A panicking handler must cost exactly its own connection:
				// recover here, so the accept loop and every other
				// connection live on.
				if r := recover(); r != nil && e.log != nil {
					e.log.Error("connection handler panic",
						"remote", conn.RemoteAddr().String(),
						"panic", fmt.Sprint(r))
				}
				conn.Close()
				e.mu.Lock()
				delete(e.conns, conn)
				e.mu.Unlock()
				e.active.Add(-1)
				e.handlers.Done()
				e.debug("connection closed", conn)
			}()
			rd := io.Reader(conn)
			if lim.ReadTimeout > 0 || lim.IdleTimeout > 0 {
				rd = &connReader{ep: e, c: conn, lim: lim}
			}
			handle(rd, conn)
		}()
	}
}

func (e *Endpoint) debug(msg string, conn net.Conn) {
	if e.log != nil {
		e.log.Debug(msg, "remote", conn.RemoteAddr().String())
	}
}

// admit charges one connection against the cap (0 = none); false means
// shed it.
func (e *Endpoint) admit(maxConns int) bool {
	for {
		cur := e.active.Load()
		if maxConns > 0 && int(cur) >= maxConns {
			return false
		}
		if e.active.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// connReader arms a read deadline before every read from the
// connection: the idle timeout while waiting for a request to start,
// the read timeout once one has begun arriving. Handle flips atStart
// at request boundaries; the zero value of either duration clears the
// deadline for reads it would govern.
type connReader struct {
	ep      *Endpoint
	c       net.Conn
	lim     Limits
	atStart bool
}

// aLongTimeAgo is a deadline guaranteed to be expired; used to keep a
// connection's reads failing fast during graceful shutdown.
var aLongTimeAgo = time.Unix(1, 0)

func (cr *connReader) Read(p []byte) (int, error) {
	d := cr.lim.ReadTimeout
	if cr.atStart {
		d = cr.lim.IdleTimeout
	}
	var dl time.Time // zero clears any previous deadline
	if d > 0 {
		dl = time.Now().Add(d)
	}
	if err := cr.c.SetReadDeadline(dl); err != nil {
		return 0, err
	}
	cr.atStart = false
	// During graceful shutdown the deadline must stay expired: Close
	// nudged every connection with an expired deadline, and re-arming
	// it here would let this read block for a full idle period. The
	// re-check after SetReadDeadline closes the race with the nudge.
	if cr.ep.closed.Load() {
		cr.c.SetReadDeadline(aLongTimeAgo) //nolint:errcheck
	}
	return cr.c.Read(p)
}

// closeWriteGrace bounds how long a draining handler may block writing
// its final replies to a client that has stopped reading.
const closeWriteGrace = 5 * time.Second

// Close shuts the endpoint down gracefully: it closes every listener,
// then *nudges* each active connection by expiring its read deadline —
// the connection stays writable, so every in-flight handler finishes
// the requests it has already read (including a buffered pipelined
// burst) and writes their replies before returning — and waits for the
// handlers to drain. Only then may the tier tear down what the handlers
// were using. Close is idempotent and reports whether this call was the
// one that closed the endpoint; Serve calls racing it return the
// closed error.
func (e *Endpoint) Close() (first bool) {
	e.mu.Lock()
	if first = e.closed.CompareAndSwap(false, true); first {
		for l := range e.listeners {
			l.Close()
		}
		now := time.Now()
		for c := range e.conns {
			// Expired read deadline: pending and future reads fail fast,
			// but buffered requests still execute and replies still
			// flush. The write grace keeps a non-reading client from
			// pinning the drain forever.
			c.SetReadDeadline(now)                       //nolint:errcheck
			c.SetWriteDeadline(now.Add(closeWriteGrace)) //nolint:errcheck
		}
	}
	e.mu.Unlock()
	e.handlers.Wait()
	return first
}

// connState is one connection's reusable I/O state: a line reader
// whose buffer doubles as the oversized-line bound, and the reply
// buffer replies are appended into between flushes. Pooled so a
// connection churn-heavy workload does not re-allocate 64 KiB buffers
// per accept.
type connState struct {
	r   *bufio.Reader
	out []byte
}

var connPool = sync.Pool{
	New: func() any {
		return &connState{
			r:   bufio.NewReaderSize(nil, MaxLineBytes),
			out: make([]byte, 0, 4096),
		}
	},
}

// Handle runs one connection's request stream through s: the burst read
// loop and its whole error tail. Split from Serve so tests can drive a
// tier over arbitrary pipes; safe for concurrent use by any number of
// connections. It returns as soon as the writer fails, so a dead client
// cannot keep its read loop spinning through the rest of the stream.
//
// Replies are appended to a pooled per-connection buffer and written
// out once per pipelined burst: the buffer is flushed when the reader
// has nothing left buffered (or when the session calls its burst full),
// so a client that pipelines N requests costs one write, not N. Every
// exit settles and flushes what the requests read so far are owed; the
// connection-level reply an exit draws rides the same write.
//
// A session that panics takes its connection's pooled state with it:
// the buffers go back to their pool on a normal return only, never from
// a defer, so nothing half-used is handed to the next connection. The
// tiers hold their own per-connection state to the same rule.
func (e *Endpoint) Handle(r io.Reader, w io.Writer, s Session) {
	st := connPool.Get().(*connState)
	st.r.Reset(r)
	flush := func(tail string) bool {
		st.out = s.Settle(st.out)
		if tail != "" {
			st.out = append(append(st.out, tail...), '\n')
		}
		if len(st.out) == 0 {
			return true
		}
		_, err := w.Write(st.out)
		st.out = st.out[:0]
		return err == nil
	}
	cr, _ := r.(*connReader) // deadline-armed transport, when Serve wired one
	for {
		if cr != nil {
			// The next byte pulled off the wire starts a new request
			// (anything already buffered costs no read at all), so it is
			// governed by the idle timeout, not the per-read one.
			cr.atStart = true
		}
		line, err := st.r.ReadSlice('\n')
		if err == nil {
			var full bool
			st.out, full = s.Request(st.out, TrimEOL(line))
			if (st.r.Buffered() == 0 || full) && !flush("") {
				break // write side is gone; stop consuming requests
			}
			continue
		}
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			// The stream is unrecoverable once a line overflows the
			// buffer: report and end the connection.
			flush(ReplyTooLong)
		case isTimeout(err) && e.closed.Load():
			// Graceful-shutdown nudge, not a client timeout: every
			// request read before the nudge is settled by the flush —
			// hang up without a spurious error line.
			flush("")
		case isTimeout(err):
			// Deadline expiry (Limits): a partially received line is
			// untrusted input cut off mid-flight — never execute it,
			// just report and hang up.
			flush(ReplyTimeout)
		default:
			if len(line) > 0 {
				// A final unterminated request still counts.
				st.out, _ = s.Request(st.out, TrimEOL(line))
			}
			if errors.Is(err, io.EOF) {
				flush("")
			} else {
				flush(ReplyReadErr + err.Error())
			}
		}
		break
	}
	st.r.Reset(nil) // drop the connection reference before pooling; out was left empty by the last flush
	connPool.Put(st)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
