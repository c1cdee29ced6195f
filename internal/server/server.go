// Package server exposes a CA-RAM subsystem over a TCP line protocol —
// the shape a CA-RAM accelerator takes behind a lookup service (the
// paper's request/result ports, §3.2, stretched over a socket).
//
// The protocol — request grammar, verb table, reply tokens — is
// internal/wire's; its package comment is the reference. This package
// executes a parsed wire.Request against the subsystem and renders the
// reply: one handler per verb, switched on the table row.
//
// Overload protection is opt-in per server. WithConnLimit caps the
// number of concurrently served connections: excess accepts are shed
// immediately with a one-line "ERR BUSY" and closed, so a connection
// flood degrades into fast rejections instead of unbounded goroutines.
// WithTimeouts arms read deadlines — an idle timeout for the start of
// the next request and a (usually shorter) read timeout once a request
// has begun arriving, the slow-loris defense — and a deadline expiry
// draws "ERR timeout" and ends the connection without executing the
// partial line. Independently of both, every connection handler runs
// under a panic recovery: a handler bug tears down that one connection
// (logged at Error) and never the process.
//
// Concurrency: the server runs on a per-engine locking model
// (subsystem.Concurrent). Requests that target distinct engines
// execute in parallel — N connections hammering N engines proceed
// independently, the §3.2 picture of multiple lookups simultaneously
// in progress in different slices. INSERT, SEARCH and DELETE on the
// same engine serialize (a slice has one row port, and even lookups
// update access statistics); STATS takes only a read lock and may
// overlap with other STATS of the same engine. MSEARCH fans its batch
// across the referenced engines and collects results in request order.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/metrics"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
	"caram/internal/wire"
)

// flushThreshold caps how much reply data accumulates before Handle
// writes it out even though more pipelined requests are buffered.
const flushThreshold = 32 * 1024

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Server serves a subsystem through its per-engine concurrency layer.
type Server struct {
	con *subsystem.Concurrent
	met *metrics.Registry // nil when built WithoutMetrics
	trc *trace.Collector  // nil when built without WithTracing
	log *slog.Logger      // nil when built without WithLogger

	maxConns    int           // 0 = unlimited
	active      atomic.Int32  // connections currently served (conn-limit bookkeeping)
	readTimeout time.Duration // per-read deadline once a request has started; 0 = none
	idleTimeout time.Duration // deadline for the start of the next request; 0 = none

	// panicLine, when non-empty, makes execAppend panic on that exact
	// request line — the test hook behind the panic-recovery regression
	// test. Never set in production.
	panicLine string

	// wal is the durability layer (nil when the server runs without
	// one): every mutation journals through it, Close snapshots and
	// seals it. closing flips at the start of Close so connection
	// readers stop re-arming deadlines and the shutdown nudge reads
	// as "drain and hang up", not "ERR timeout".
	wal      *wal.Log
	snapStop chan struct{} // stops the periodic-snapshot loop
	snapWG   sync.WaitGroup
	closing  atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	handlers  sync.WaitGroup // accept loops + connection handlers
}

// Option configures New.
type Option func(*options)

type options struct {
	metrics   bool
	trc       *trace.Collector
	log       *slog.Logger
	maxConns  int
	readTO    time.Duration
	idleTO    time.Duration
	wal       *wal.Log
	walRoster uint64
	snapEvery time.Duration
}

// WithoutMetrics builds the server without the observability layer:
// no counters, no latency measurement, METRICS answers "ERR metrics
// disabled". The instrumented path is the default; this exists for the
// overhead benchmark and for embedders that bring their own telemetry.
func WithoutMetrics() Option {
	return func(o *options) { o.metrics = false }
}

// WithTracing attaches a request-scoped trace collector: every wire
// command records its own trace (command, engine, key, per-command
// start/end — so each member of a pipelined burst is individually
// attributable — and, for SEARCH, the full probe chain) and the
// collector's sampling/slowlog policies decide retention. Without this
// option tracing is off: the hot path sees only nil checks and stays
// allocation-free, SLOWLOG answers "ERR tracing disabled", and only
// EXPLAIN (which forces its own trace) records probe chains.
func WithTracing(c *trace.Collector) Option {
	return func(o *options) { o.trc = c }
}

// WithLogger attaches a structured logger: connection lifecycle at
// Debug, slow-request records (one line per slowlog admission) at
// Warn, handler panics at Error. nil (the default) disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.log = l }
}

// WithConnLimit caps concurrently served connections at n (load
// shedding): an accept beyond the cap is answered with one "ERR BUSY"
// line and closed immediately, without dedicating a handler goroutine
// to it. n <= 0 (the default) means unlimited.
func WithConnLimit(n int) Option {
	return func(o *options) { o.maxConns = n }
}

// WithTimeouts arms per-connection read deadlines. idle bounds how
// long a connection may sit between requests (waiting for the first
// byte of the next line); read bounds each subsequent read once a
// request has started arriving — the slow-loris defense, since a
// client trickling one byte per read can no longer hold a handler
// forever. Either may be zero to disable that bound. On expiry the
// connection draws "ERR timeout" and closes; a partially received
// line is never executed.
func WithTimeouts(read, idle time.Duration) Option {
	return func(o *options) { o.readTO, o.idleTO = read, idle }
}

// WithWAL attaches a durability layer: every acknowledged mutation is
// journaled through w (acks ordered after the fsync under the
// sync=always policy), rosterLSN seeds the CREATE/DROP replay gate
// recovered from disk, and snapshotEvery > 0 starts a background loop
// that serializes the subsystem's shadow image and truncates sealed
// segments. Close snapshots once more after the drain and seals the
// log, so a graceful shutdown leaves a log needing zero replay.
func WithWAL(w *wal.Log, rosterLSN uint64, snapshotEvery time.Duration) Option {
	return func(o *options) {
		o.wal = w
		o.walRoster = rosterLSN
		o.snapEvery = snapshotEvery
	}
}

// New wraps a subsystem whose engine registration is complete. By
// default the per-engine metrics layer is attached (see
// internal/metrics); the registry is reachable via Metrics for HTTP
// export.
func New(sub *subsystem.Subsystem, opts ...Option) *Server {
	o := options{metrics: true}
	for _, opt := range opts {
		opt(&o)
	}
	con := subsystem.NewConcurrent(sub)
	var reg *metrics.Registry
	if o.metrics {
		reg = metrics.NewRegistry(con.Engines())
		con.Instrument(reg)
	}
	if o.wal != nil {
		con.SetJournal(o.wal, o.walRoster)
		if reg != nil {
			w := o.wal
			reg.SetWALFunc(func() metrics.WALStats {
				st := w.Stats()
				return metrics.WALStats{
					AppendedLSN: st.LSN,
					DurableLSN:  st.Durable,
					SnapshotLSN: st.SnapshotLSN,
					Pending:     st.Pending,
					Segments:    st.Segments,
					Fsyncs:      st.Fsyncs,
					FsyncNanos:  st.FsyncNanos,
					LastFsync:   st.LastFsync,
				}
			})
		}
	}
	s := &Server{
		con:         con,
		met:         reg,
		trc:         o.trc,
		log:         o.log,
		maxConns:    o.maxConns,
		readTimeout: o.readTO,
		idleTimeout: o.idleTO,
		wal:         o.wal,
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
	if s.wal != nil && o.snapEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapWG.Add(1)
		go func() {
			defer s.snapWG.Done()
			wal.Snapshotter(o.snapEvery, s.snapStop,
				func() error { return s.wal.Snapshot(s.con.SnapshotImage) },
				func(err error) {
					if s.log != nil {
						s.log.Error("wal snapshot failed", "err", err)
					}
				})
		}()
	}
	return s
}

// Metrics returns the server's registry, or nil when built
// WithoutMetrics. Callers use it to mount the HTTP exposition
// (metrics.Handler).
func (s *Server) Metrics() *metrics.Registry { return s.met }

// Tracing returns the server's trace collector, or nil when tracing is
// off. Callers use it to mount the /debug/traces endpoint.
func (s *Server) Tracing() *trace.Collector { return s.trc }

// Serve accepts connections until the listener closes or the server is
// shut down with Close (which returns ErrServerClosed).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.handlers.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		s.handlers.Done()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				return ErrServerClosed
			}
			return err
		}
		if !s.admit() {
			// Over the connection cap: shed the load with one line and
			// move on — no handler goroutine, no map entry, no buffers.
			conn.Write([]byte("ERR BUSY\n")) //nolint:errcheck // best-effort courtesy reply
			conn.Close()
			if s.log != nil {
				s.log.Debug("connection shed", "remote", conn.RemoteAddr().String())
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.active.Add(-1)
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		if s.log != nil {
			s.log.Debug("connection accepted", "remote", conn.RemoteAddr().String())
		}
		go func() {
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.active.Add(-1)
				s.handlers.Done()
				if s.log != nil {
					s.log.Debug("connection closed", "remote", conn.RemoteAddr().String())
				}
			}()
			// A panicking handler must cost exactly its own connection:
			// recover here (before the cleanup defer above closes it)
			// so the accept loop and every other connection live on.
			defer func() {
				if r := recover(); r != nil && s.log != nil {
					s.log.Error("connection handler panic",
						"remote", conn.RemoteAddr().String(),
						"panic", fmt.Sprint(r))
				}
			}()
			rd := io.Reader(conn)
			if s.readTimeout > 0 || s.idleTimeout > 0 {
				rd = &connReader{srv: s, c: conn, read: s.readTimeout, idle: s.idleTimeout}
			}
			s.Handle(rd, conn)
		}()
	}
}

// admit charges one connection against the cap; false means shed it.
func (s *Server) admit() bool {
	if s.maxConns <= 0 {
		s.active.Add(1) // uncapped: keep the gauge honest anyway
		return true
	}
	for {
		cur := s.active.Load()
		if int(cur) >= s.maxConns {
			return false
		}
		if s.active.CompareAndSwap(cur, cur+1) {
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
	srv     *Server
	c       net.Conn
	read    time.Duration
	idle    time.Duration
	atStart bool
}

// aLongTimeAgo is a deadline guaranteed to be expired; used to keep a
// connection's reads failing fast during graceful shutdown.
var aLongTimeAgo = time.Unix(1, 0)

func (cr *connReader) Read(p []byte) (int, error) {
	d := cr.read
	if cr.atStart {
		d = cr.idle
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
	if cr.srv != nil && cr.srv.closing.Load() {
		cr.c.SetReadDeadline(aLongTimeAgo) //nolint:errcheck
	}
	return cr.c.Read(p)
}

// closeWriteGrace bounds how long a draining handler may block writing
// its final replies to a client that has stopped reading.
const closeWriteGrace = 5 * time.Second

// Close shuts the server down gracefully: it closes every listener,
// then *nudges* each active connection by expiring its read deadline —
// the connection stays writable, so every in-flight handler finishes
// the requests it has already read (including a buffered pipelined
// burst) and writes their replies before returning. Only after all
// handlers have drained does Close take a final snapshot, close the
// subsystem, and seal the WAL — which is why a graceful shutdown is a
// clean recovery point needing zero replay. Close is idempotent; Serve
// calls racing it return ErrServerClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		s.closing.Store(true)
		for l := range s.listeners {
			l.Close()
		}
		now := time.Now()
		for c := range s.conns {
			// Expired read deadline: pending and future reads fail fast,
			// but buffered requests still execute and replies still
			// flush. The write grace keeps a non-reading client from
			// pinning the drain forever.
			c.SetReadDeadline(now)                       //nolint:errcheck
			c.SetWriteDeadline(now.Add(closeWriteGrace)) //nolint:errcheck
		}
	}
	stop := s.snapStop
	s.mu.Unlock()
	if first && stop != nil {
		close(stop)
	}
	s.snapWG.Wait()
	s.handlers.Wait()
	var err error
	if first && s.wal != nil {
		// The drain is complete: this snapshot captures every applied
		// mutation, so the sealed log below needs zero replay on the
		// next boot.
		if serr := s.wal.Snapshot(s.con.SnapshotImage); serr != nil {
			err = serr
		}
	}
	s.con.Close()
	if first && s.wal != nil {
		if serr := s.wal.Seal(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
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
			r:   bufio.NewReaderSize(nil, wire.MaxLineBytes),
			out: make([]byte, 0, 4096),
		}
	},
}

// Handle processes one connection's request stream. Split from Serve
// so tests can drive it over arbitrary pipes. Handle itself is safe
// for concurrent use: any number of connections may execute at once.
// It returns as soon as the writer fails, so a dead client cannot keep
// its read loop spinning through the rest of the stream.
//
// Replies are appended to a pooled per-connection buffer and written
// out once per pipelined burst: the buffer is flushed when the reader
// has no complete requests left buffered (or when flushThreshold of
// replies has accumulated), so a client that pipelines N requests
// costs one write, not N.
func (s *Server) Handle(r io.Reader, w io.Writer) {
	st := connPool.Get().(*connState)
	st.r.Reset(r)
	st.out = st.out[:0]
	defer func() {
		st.r.Reset(nil) // drop the connection reference before pooling
		connPool.Put(st)
	}()
	flush := func() bool {
		if len(st.out) == 0 {
			return true
		}
		_, err := w.Write(st.out)
		st.out = st.out[:0]
		return err == nil
	}
	// exec hands the protocol engine a view of the read buffer, not a
	// copy (wire's "Field lifetime"). The view covers one ExecAppend,
	// and nothing the call leaves behind points into it: error texts are
	// formatted on the spot, the trace layer clones its fields when it
	// admits a trace, the journal encodes its entry inside Append, and a
	// created engine's name is cloned where it is stored.
	exec := func(line []byte) {
		st.out = s.ExecAppend(st.out, wire.View(wire.TrimEOL(line)))
		st.out = append(st.out, '\n')
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
		switch {
		case err == nil:
			exec(line)
			if st.r.Buffered() == 0 || len(st.out) >= flushThreshold {
				if !flush() {
					return // write side is gone; stop consuming requests
				}
			}
		case errors.Is(err, bufio.ErrBufferFull):
			// The stream is unrecoverable once a line overflows the
			// buffer; report and end the connection like the previous
			// Scanner-based loop did.
			st.out = append(st.out, "ERR line too long\n"...)
			flush()
			return
		case errors.Is(err, io.EOF):
			if len(line) > 0 {
				exec(line) // final unterminated request still counts
			}
			flush()
			return
		default:
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if s.closing.Load() {
					// Graceful-shutdown nudge, not a client timeout: every
					// request read before the nudge has its reply buffered
					// above — flush them and hang up without a spurious
					// error line.
					flush()
					return
				}
				// Deadline expiry (WithTimeouts): a partially received
				// line is untrusted input cut off mid-flight — never
				// execute it, just report and hang up.
				st.out = append(st.out, "ERR timeout\n"...)
				flush()
				return
			}
			if len(line) > 0 {
				exec(line)
			}
			st.out = append(st.out, "ERR read: "...)
			st.out = append(st.out, err.Error()...)
			st.out = append(st.out, '\n')
			flush()
			return
		}
	}
}

// Exec runs one request line and returns the single-line response —
// the string-returning convenience form of ExecAppend, kept for
// embedders and tests.
func (s *Server) Exec(line string) string {
	return string(s.ExecAppend(nil, line))
}

// ExecAppend runs one request line and appends the single-line
// response (without the trailing newline) to dst, returning the
// extended buffer. It is the protocol engine behind Handle, exported
// so embedders and benchmarks can drive the server without a socket.
// ExecAppend is safe for concurrent use; requests to distinct engines
// run in parallel. A SEARCH request on an uninstrumented, untraced
// server allocates nothing: fields are substrings of the line, keys
// parse in place, and the reply is appended into dst.
//
// With tracing attached (WithTracing), every call begins and ends its
// own trace — each command of a pipelined burst gets its own
// start/end stamps even though Handle flushes the burst's replies with
// one write, so slow burst members are individually attributable.
func (s *Server) ExecAppend(dst []byte, line string) []byte {
	tr := s.trc.Begin()
	if tr == nil {
		return s.execAppend(dst, line, nil)
	}
	mark := len(dst)
	dst = s.execAppend(dst, line, tr)
	tr.SetResult(wire.Head(wire.View(dst[mark:])))
	// On slowlog admission the trace is retained (immutable from here
	// on) and safe to read for the log record; otherwise End has
	// already recycled it and it must not be touched again.
	if slow := s.trc.End(tr); slow && s.log != nil {
		s.log.Warn("slow request",
			"id", tr.ID,
			"cmd", tr.Cmd,
			"engine", tr.Engine,
			"key", tr.Key,
			"us", tr.Dur.Microseconds(),
			"rows", tr.Rows,
			"result", tr.Result,
		)
	}
	return dst
}

// execAppend is the protocol engine proper: parse the line's head
// against the one grammar, then run the verb's handler; tr is nil when
// tracing is off for this request.
func (s *Server) execAppend(dst []byte, line string, tr *trace.Trace) []byte {
	if s.panicLine != "" && line == s.panicLine {
		panic("injected handler panic: " + line)
	}
	req := wire.Parse(line)
	if req.Annotated {
		// The *TID annotation joins this request's trace to the caller's
		// trace id and is otherwise invisible. Cost when absent: this branch.
		tr.SetWire(req.TID, req.Span)
	}
	v, fs := req.Verb, &req.Args
	switch req.Status {
	case wire.Empty:
		return append(dst, "ERR empty request"...)
	case wire.UnknownAnnotation:
		return append(append(dst, "ERR unknown annotation "...), req.Word...)
	case wire.BadTID:
		return append(append(dst, "ERR usage: "...), wire.TIDUsage...)
	case wire.UnknownVerb:
		cmd := strings.ToUpper(req.Word)
		tr.Request(cmd, "", "")
		return append(append(dst, "ERR unknown command "...), cmd...)
	}
	tr.Request(v.Name, "", "") // handlers with an engine/key refine this
	switch v.ID {
	case wire.Search:
		eng, ok1 := fs.Next()
		keyS, ok2 := fs.Next()
		maskS, _ := fs.Next()
		if _, extra := fs.Next(); !ok1 || !ok2 || extra {
			return appendUsage(dst, v)
		}
		tr.Request(v.Name, eng, keyS)
		search, bad := parseKey(keyS, maskS)
		if bad != "" {
			return appendBadHex(dst, bad)
		}
		return s.searchAppend(dst, eng, search, tr)
	case wire.Insert:
		eng, ok1 := fs.Next()
		keyS, ok2 := fs.Next()
		dataS, ok3 := fs.Next()
		if _, extra := fs.Next(); !ok1 || !ok2 || !ok3 || extra {
			return appendUsage(dst, v)
		}
		tr.Request(v.Name, eng, keyS)
		key, ok := wire.ParseVec(keyS)
		if !ok {
			return appendBadHex(dst, keyS)
		}
		data, ok := wire.ParseVec(dataS)
		if !ok {
			return appendBadHex(dst, dataS)
		}
		rec := match.Record{Key: bitutil.Exact(key), Data: data}
		if err := s.con.InsertTraced(eng, rec, tr); err != nil {
			return appendErr(dst, err)
		}
		return append(dst, wire.ReplyOK...)
	case wire.Delete:
		eng, ok1 := fs.Next()
		keyS, ok2 := fs.Next()
		if _, extra := fs.Next(); !ok1 || !ok2 || extra {
			return appendUsage(dst, v)
		}
		tr.Request(v.Name, eng, keyS)
		key, ok := wire.ParseVec(keyS)
		if !ok {
			return appendBadHex(dst, keyS)
		}
		if err := s.con.DeleteTraced(eng, bitutil.Exact(key), tr); err != nil {
			return appendErr(dst, err)
		}
		return append(dst, wire.ReplyOK...)
	case wire.MSearch:
		// Arity is judged over the whole argument list before any key is
		// parsed, so "MSEARCH db 12zz extra" is a usage error, not bad hex.
		n := fs.Count()
		if n == 0 || n%2 != 0 {
			return appendUsage(dst, v)
		}
		reqs := make([]subsystem.PortKey, n/2)
		for i := range reqs {
			port, _ := fs.Next()
			keyS, _ := fs.Next()
			key, ok := wire.ParseVec(keyS)
			if !ok {
				return appendBadHex(dst, keyS)
			}
			reqs[i] = subsystem.PortKey{Port: port, Key: bitutil.Exact(key)}
		}
		dst = append(dst, wire.ReplyMResults...)
		for _, r := range s.con.MSearch(reqs) {
			dst = append(dst, ' ')
			switch {
			case errors.Is(r.Err, subsystem.ErrEngineUnavailable):
				dst = append(dst, wire.SlotUnavailable...)
			case r.Err != nil:
				dst = append(dst, wire.SlotNoEngine...)
			default:
				dst = appendSearchReply(dst, r.Result.Found, r.Result.Erred, r.Result.Record.Data, ':')
			}
		}
		return dst
	case wire.TSearch:
		return s.execTSearchAppend(dst, v, fs, tr)
	case wire.TInsert:
		return s.execTInsertAppend(dst, v, fs, tr)
	case wire.MInsert:
		return s.execMInsertAppend(dst, v, fs, tr)
	case wire.MDelete:
		return s.execMDeleteAppend(dst, v, fs, tr)
	case wire.Explain:
		return s.execExplainAppend(dst, v, fs)
	case wire.Stats:
		eng, ok1 := fs.Next()
		if _, extra := fs.Next(); !ok1 || extra {
			return appendUsage(dst, v)
		}
		info, err := s.con.Info(eng)
		if err != nil {
			return appendErr(dst, err)
		}
		dst = appendKV(append(dst, "STATS"...), "n", info.Count)
		dst = appendKVf(dst, "alpha", info.LoadFactor, 3)
		dst = appendKVf(dst, "amal", info.Stats.AMAL(), 3)
		dst = appendKV(dst, "hits", info.Stats.Hits)
		return appendKV(dst, "misses", info.Stats.Misses)
	case wire.Engines:
		dst = append(dst, "ENGINES "...)
		for i, name := range s.con.Engines() {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, name...)
		}
		return dst
	case wire.Create:
		return s.execCreateAppend(dst, v, fs)
	case wire.Drop:
		return s.execDropAppend(dst, v, fs)
	case wire.Health:
		return s.execHealthAppend(dst, v, fs)
	case wire.Metrics:
		return s.execMetricsAppend(dst, v, fs)
	case wire.Slowlog:
		return s.execSlowlogAppend(dst, v, fs)
	case wire.Trace:
		return s.execTraceAppend(dst, v, fs)
	case wire.WAL:
		return s.execWALAppend(dst, v, fs)
	}
	panic("server: verb " + v.Name + " has a table row but no handler")
}

// searchAppend runs one lookup and renders it — the tail SEARCH and
// TSEARCH share once each has built its search key: the parse span ends
// here, the encode span covers the reply.
func (s *Server) searchAppend(dst []byte, eng string, search bitutil.Ternary, tr *trace.Trace) []byte {
	if tr.Enabled() {
		tr.Span(trace.KindParse, tr.Begin)
	}
	sr, err := s.con.SearchTraced(eng, search, tr)
	if err != nil {
		return appendErr(dst, err)
	}
	var encStart time.Time
	if tr.Enabled() {
		encStart = time.Now()
	}
	dst = appendSearchReply(dst, sr.Found, sr.Erred, sr.Record.Data, ' ')
	if tr.Enabled() {
		tr.Span(trace.KindEncode, encStart)
	}
	return dst
}

// execMetricsAppend answers the METRICS command against the registry.
// The no-argument and per-engine forms print only counters and
// core-state gauges — deterministic for a scripted session, which is
// what lets the golden-session test cover them byte-exactly. The
// LATENCY form adds wall-clock quantiles and is therefore excluded
// from golden coverage.
func (s *Server) execMetricsAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	var args [4]string
	n := fs.Fill(args[:])
	if s.met == nil {
		return append(dst, "ERR metrics disabled"...)
	}
	if n == 0 {
		ops, errs := s.met.Totals()
		dst = appendKV(append(dst, "METRICS"...), "engines", len(s.met.Engines()))
		dst = appendKV(dst, "ops", ops)
		dst = appendKV(dst, "errors", errs)
		return appendKV(dst, "unknown", s.met.Unknown())
	}
	hist := n == 3 && wire.EqualFold(args[1], "HIST")
	if n != 1 && !hist && !(n == 3 && wire.EqualFold(args[1], "LATENCY")) {
		return appendUsage(dst, v)
	}
	em := s.met.Engine(args[0])
	if em == nil {
		dst = append(dst, "ERR metrics: no engine "...)
		return strconv.AppendQuote(dst, args[0])
	}
	if n == 1 {
		dst = append(dst, "METRICS engine="...)
		dst = append(dst, em.Name()...)
		for op := metrics.Op(0); op < metrics.NumOps; op++ {
			dst = appendKV(dst, op.String(), em.Count(op))
			dst = append(dst, ' ')
			dst = append(dst, op.String()...)
			dst = append(dst, "_err="...)
			dst = appendUint(dst, em.Errors(op))
		}
		if g, ok := em.SampleGauges(); ok {
			dst = appendKV(dst, "n", g.Records)
			dst = appendKVf(dst, "load", g.LoadFactor, 3)
			dst = appendKVf(dst, "amal", g.AMAL, 3)
			dst = appendKV(dst, "hits", g.Hits)
			dst = appendKV(dst, "misses", g.Misses)
			dst = appendKV(dst, "overflow", g.Overflow)
			dst = appendKV(dst, "spilled", g.Spilled)
		}
		return dst
	}
	op, err := metrics.ParseOp(args[2])
	if err != nil {
		dst = append(dst, "ERR metrics: unknown op "...)
		return append(dst, args[2]...)
	}
	h := em.Latency(op).Snapshot()
	dst = append(dst, "METRICS engine="...)
	dst = append(dst, em.Name()...)
	dst = append(dst, " op="...)
	dst = append(dst, op.String()...)
	dst = appendKV(dst, "n", h.N)
	dst = appendKV(dst, "err", em.Errors(op))
	if hist {
		// Raw bucket counts, the machine-readable form the cluster router
		// scatters and merges bucket-wise into a fleet histogram; LATENCY
		// is the human quantile view.
		return h.AppendBuckets(dst)
	}
	return h.AppendQuantiles(dst)
}
