// Package server exposes a CA-RAM subsystem over a TCP line protocol —
// the shape a CA-RAM accelerator takes behind a lookup service (the
// paper's request/result ports, §3.2, stretched over a socket).
//
// The protocol — request grammar, verb table, reply tokens — is
// internal/wire's; its package comment is the reference. This package
// executes a parsed wire.Request against the subsystem and renders the
// reply: one handler per verb, switched on the table row.
//
// Connections are served by internal/wire's Endpoint, the lifecycle the
// router serves through too; this package plugs in the session that
// executes each line. Overload protection is the endpoint's, opt-in per
// server with WithLimits. A connection cap sheds excess accepts
// immediately with a one-line "ERR BUSY" and a close, so a connection
// flood degrades into fast rejections instead of unbounded goroutines.
// Read deadlines — an idle timeout for the start of the next request
// and a (usually shorter) read timeout once a request has begun
// arriving, the slow-loris defense — draw "ERR timeout" on expiry and
// end the connection without executing the partial line. Independently
// of both, every connection handler runs under a panic recovery: a
// handler bug tears down that one connection (logged at Error) and
// never the process.
//
// Concurrency: the server runs on a per-engine locking model
// (subsystem.Concurrent). Requests that target distinct engines
// execute in parallel — N connections hammering N engines proceed
// independently, the §3.2 picture of multiple lookups simultaneously
// in progress in different slices. SEARCH is wait-free: it reads its
// rows under their seqlock, overlapping every other read and the
// engine's one writer, and takes the engine lock only when the seqlock
// cannot certify the read. INSERT and DELETE on the same engine
// serialize under that lock (a slice has one row port); STATS takes
// only a read lock. MSEARCH runs on the connection's own goroutine: it
// groups its keys by engine, runs the groups one after another, and
// returns the results in request order.
package server

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"caram/internal/bitutil"
	"caram/internal/match"
	"caram/internal/metrics"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/trigram"
	"caram/internal/wal"
	"caram/internal/wire"
)

// flushThreshold caps how much reply data accumulates before a burst is
// written out even though more pipelined requests are buffered.
const flushThreshold = 32 * 1024

// runCap caps a run of writes (see session): enough lines to amortise
// the engine lock and keep a touch stage's chunks full, few enough that
// the replies held back behind the run stay a few kilobytes. A run also
// ends once its copied lines pass flushThreshold bytes, which only lines
// padded far past their fields reach.
const runCap = 256

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Server serves a subsystem through its per-engine concurrency layer.
type Server struct {
	con *subsystem.Concurrent
	met *metrics.Registry // nil when built WithoutMetrics
	trc *trace.Collector  // nil when built without WithTracing
	log *slog.Logger      // nil when built without WithLogger

	// ep is the connection lifecycle (internal/wire): listeners, accept,
	// shed, deadlines, the panic fence, the burst read loop and the drain.
	// lim is handed to it per Serve call.
	ep  *wire.Endpoint
	lim wire.Limits

	// wal is the durability layer (nil when the server runs without
	// one): every mutation journals through it, Close snapshots and
	// seals it. rec is the recovery that opened it.
	wal      *wal.Log
	rec      *wal.RecoverResult
	snapStop chan struct{} // stops the periodic-snapshot loop
	snapWG   sync.WaitGroup
}

// Option configures New.
type Option func(*options)

type options struct {
	metrics   bool
	trc       *trace.Collector
	log       *slog.Logger
	lim       wire.Limits
	wal       *wal.Log
	rec       *wal.RecoverResult
	snapEvery time.Duration
}

// WithoutMetrics builds the server without the observability layer:
// no counters, no latency measurement, METRICS answers "ERR metrics
// disabled". The instrumented path is the default; this exists for the
// overhead benchmark and for embedders that bring their own telemetry.
func WithoutMetrics() Option {
	return func(o *options) { o.metrics = false }
}

// WithTracing attaches a request-scoped trace collector, consulted on
// admission: a request the 1-in-N sampler picks or a *TID annotation
// tags records its own trace as it runs (command, engine, key, every
// span and, for SEARCH, the full probe chain); any other costs the
// collector one atomic add, and is kept — its entry built after the
// fact, see exec — only if its latency passes the slowlog threshold.
// Either way each member of a pipelined burst has its own start and
// end. Without this option tracing is off: the hot path sees only nil
// checks and stays allocation-free, SLOWLOG answers "ERR tracing
// disabled", and only EXPLAIN (which forces its own trace) records
// probe chains.
func WithTracing(c *trace.Collector) Option {
	return func(o *options) { o.trc = c }
}

// WithLogger attaches a structured logger: connection lifecycle at
// Debug, slow-request records (one line per slowlog admission) at
// Warn, handler panics at Error. nil (the default) disables logging.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) { o.log = l }
}

// WithLimits arms the endpoint's overload protection; each zero field
// leaves its bound off. MaxConns caps concurrently served connections
// (load shedding): an accept beyond the cap is answered with one "ERR
// BUSY" line and closed immediately, without dedicating a handler
// goroutine to it. IdleTimeout bounds how long a connection may sit
// between requests (waiting for the first byte of the next line);
// ReadTimeout bounds each subsequent read once a request has started
// arriving — the slow-loris defense, since a client trickling one byte
// per read can no longer hold a handler forever. On expiry the
// connection draws "ERR timeout" and closes; a partially received line
// is never executed.
func WithLimits(lim wire.Limits) Option {
	return func(o *options) { o.lim = lim }
}

// WithWAL attaches a durability layer: every acknowledged mutation is
// journaled through w (acks ordered after the fsync under the
// sync=always policy), rec — the recovery that opened w — seeds the
// CREATE/DROP replay gate and is reported on /metrics, and
// snapshotEvery > 0 starts a background loop that serializes the
// subsystem's shadow image and truncates sealed segments. Close
// snapshots once more after the drain and seals the log, so a graceful
// shutdown leaves a log needing zero replay.
func WithWAL(w *wal.Log, rec *wal.RecoverResult, snapshotEvery time.Duration) Option {
	return func(o *options) {
		o.wal = w
		o.rec = rec
		o.snapEvery = snapshotEvery
	}
}

// New wraps a subsystem whose engine registration is complete. By
// default the per-engine metrics layer is attached (see
// internal/metrics); Exposition serves it over HTTP.
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
		con.SetJournal(o.wal, o.rec.RosterLSN)
	}
	s := &Server{
		con: con,
		met: reg,
		trc: o.trc,
		log: o.log,
		ep:  wire.NewEndpoint(ErrServerClosed, o.log),
		lim: o.lim,
		wal: o.wal,
		rec: o.rec,
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

// Exposition returns the server's /metrics for metrics.Handler: the
// engine families (without samples when built WithoutMetrics), the
// write-ahead log's and its recovery's when one is attached, then the
// process families.
func (s *Server) Exposition() metrics.Exposition {
	if s.wal == nil {
		return s.met.Exposition()
	}
	return s.met.Exposition(
		metrics.Bind(s.wal.Stats, wal.StatsFamilies...),
		metrics.Bind(func() *wal.RecoverResult { return s.rec }, wal.RecoveryFamilies...))
}

// Serve accepts connections until the listener closes or the server is
// shut down with Close (which returns ErrServerClosed).
func (s *Server) Serve(l net.Listener) error {
	return s.ep.Serve(l, s.lim, s.Handle)
}

// Close shuts the server down gracefully: the endpoint closes every
// listener, nudges each active connection and waits until every
// in-flight handler has finished the requests it had already read and
// written their replies. Only after that drain does Close stop the
// snapshotter, take a final snapshot, close the subsystem, and seal the
// WAL — which is why a graceful shutdown is a clean recovery point
// needing zero replay. Close is idempotent; Serve calls racing it
// return ErrServerClosed.
func (s *Server) Close() error {
	first := s.ep.Close()
	if first && s.snapStop != nil {
		close(s.snapStop)
	}
	s.snapWG.Wait()
	var err error
	if first && s.wal != nil {
		// The drain is complete: this snapshot captures every applied
		// mutation, so the sealed log below needs zero replay on the
		// next boot.
		err = s.wal.Snapshot(s.con.SnapshotImage)
	}
	s.con.Close()
	if first && s.wal != nil {
		if serr := s.wal.Seal(); err == nil {
			err = serr
		}
	}
	return err
}

// Handle processes one connection's request stream through the
// endpoint's burst read loop. Split from Serve so tests can drive it
// over arbitrary pipes; safe for concurrent use by any number of
// connections.
func (s *Server) Handle(r io.Reader, w io.Writer) {
	s.ep.Handle(r, w, &session{Server: s})
}

// session is the server's half of a connection (wire.Session). A
// request is answered on the spot, unless it is a write that can join a
// run: consecutive well-formed INSERT, DELETE, MINSERT, MDELETE and
// TINSERT lines naming one engine, none of them head-sampled or
// *TID-tagged. Those are parsed into their journal entries as they
// arrive and applied together (applyRun) — under one hold of the engine
// lock, their home rows fetched a chunk ahead — when the next line is
// anything else (a malformed write and a write to another engine
// included), when the run reaches runCap, or at Settle, which is before
// the burst's flush. So every reply still follows its request's apply,
// and replies leave in request order.
//
// What the session keeps between requests is the burst's clock: end is
// when the previous member of the burst finished, which is when this one
// was admitted — the members of a burst run back to back, so one clock
// read per member stamps both. A run's members chain the same way over
// their apply windows. end is zero, and the next request reads the clock
// itself, whenever the two did not run back to back: after a flush
// (Settle — the write and the wait for the next burst belong to no
// request), and when this line was not yet whole while its predecessor
// ran, so that the wait for its tail is not served time.
type session struct {
	*Server
	end  time.Time
	room int       // cap of the previous line's view of the read buffer
	run  *writeRun // the pending run of writes; nil when none is open
}

// Request hands the protocol engine a view of the read buffer, not a
// copy (wire's "Field lifetime"). The view covers one exec, and
// nothing the call leaves behind points into it: error texts are
// formatted on the spot, the trace layer clones its fields when it
// admits a trace, the journal encodes its entry inside Append, a
// created engine's name is cloned where it is stored, and a line that
// joins a run is copied into it.
func (s *session) Request(out, line []byte) ([]byte, bool) {
	// Lines of one fill of the read buffer lie one behind the other, each
	// with less of the buffer left behind it than the last; a line that
	// has as much or more was completed by a later read, which moved it
	// to the front.
	if cap(line) >= s.room {
		s.end = time.Time{}
	}
	s.room = cap(line)
	if s.end.IsZero() {
		s.end = s.admitNow()
	}
	v := wire.View(line)
	var req wire.Request
	wire.Parse(&req, v)
	sampled := s.trc.Sample()
	if !sampled && req.Status == wire.OK && req.TID == 0 && writeVerbs>>req.Verb.ID&1 != 0 {
		var joined bool
		if out, joined = s.join(out, v, &req); joined {
			return out, len(out) >= flushThreshold
		}
	}
	if s.run != nil {
		out = s.flushRun(out)
	}
	out, s.end = s.exec(out, v, &req, sampled, s.end)
	out = append(out, '\n')
	return out, len(out) >= flushThreshold
}

// writeVerbs is the set of verbs parseWrite reads, a bit per verb ID.
const writeVerbs uint32 = 1<<wire.Insert | 1<<wire.Delete | 1<<wire.MInsert | 1<<wire.MDelete | 1<<wire.TInsert

func (s *session) Settle(out []byte) []byte {
	out = s.flushRun(out)
	s.end = time.Time{}
	return out
}

// writeRun is a session's pending run of writes: the members' journal
// entries, the outcomes WriteRun leaves for them, and their request
// lines, copied — the read buffer a line was a view of may be refilled
// before the run applies — for a slow member's late-built slowlog entry.
// eng holds the engine name every entry names.
type writeRun struct {
	ents  []subsystem.JournalEntry // runCap of them
	out   []subsystem.Written      // runCap of them
	ends  []int                    // member i's line is lines[ends[i-1]:ends[i]]
	n     int
	eng   []byte
	lines []byte
}

var writeRuns = sync.Pool{New: func() any {
	return &writeRun{
		ents: make([]subsystem.JournalEntry, runCap),
		out:  make([]subsystem.Written, runCap),
		ends: make([]int, runCap),
	}
}}

// join adds an untraced write to the session's run when its arguments
// parse, and reports whether it did. A member naming another engine than
// the run's applies the run first and opens the next; a full run applies
// at once.
func (s *session) join(out []byte, line string, req *wire.Request) ([]byte, bool) {
	fs := req.Args // a copy: a line that does not join is scanned again by its handler
	if eng, _ := fs.Next(); s.run != nil && s.run.n > 0 && eng != wire.View(s.run.eng) {
		out = s.flushRun(out)
	}
	if s.run == nil {
		s.run = writeRuns.Get().(*writeRun)
	}
	r := s.run
	ent := &r.ents[r.n]
	// A line that does not parse is answered by exec, which parses it
	// again: the reply parseWrite appends here is dropped.
	fs = req.Args
	if reply, ok := s.parseWrite(out, ent, req.Verb, &fs); !ok {
		return reply[:len(out)], false
	}
	if r.n == 0 {
		r.eng = append(r.eng[:0], ent.Engine...)
	}
	ent.Engine = wire.View(r.eng)
	r.lines = append(r.lines, line...)
	r.ends[r.n] = len(r.lines)
	if r.n++; r.n == runCap || len(r.lines) >= flushThreshold {
		out = s.flushRun(out)
	}
	return out, true
}

// flushRun applies the session's run, if it has one, and appends its
// members' replies in order. The first member is admitted on the burst's
// clock, as the request that ran in its place would have been, and each
// later one when its predecessor finished; a member whose window passes
// the slowlog threshold gets its entry built after the fact, from its
// copied line.
func (s *session) flushRun(out []byte) []byte {
	r := s.run
	if r == nil {
		return out
	}
	s.run = nil
	if r.n > 0 {
		watched := s.trc != nil || s.met != nil
		s.applyRun(r.ents[:r.n], r.out[:r.n], s.end)
		t, start := s.end, 0
		var sv served
		for i := range r.out[:r.n] {
			mark := len(out)
			out = appendWritten(out, &r.out[i])
			if watched {
				sv.clock = r.out[i].Clock
				if sv.clock.T0.IsZero() {
					sv.clock.T0 = t // refused before it ran
				}
				d := sv.clock.Dur
				if d == 0 {
					d = time.Since(sv.clock.T0)
				}
				if s.trc.SlowAdmit(d) {
					s.retain(nil, wire.View(r.lines[start:r.ends[i]]), &sv, d, out[mark:])
				}
				t = sv.clock.T0.Add(d)
			}
			out = append(out, '\n')
			start = r.ends[i]
		}
		s.end = t
	}
	r.n, r.lines = 0, r.lines[:0]
	writeRuns.Put(r)
	return out
}

// applyRun is where the server applies writes: a session's run at its
// flush, and a write exec answers on its own as a run of one. It hands
// the run to subsystem.Concurrent.WriteRun, the first member admitted at
// t0, and leaves member i's outcome in res[i].
func (s *Server) applyRun(ents []subsystem.JournalEntry, res []subsystem.Written, t0 time.Time) {
	clear(res)
	res[0].Clock.T0 = t0
	s.con.WriteRun(ents, res, s.trc != nil || s.met != nil)
}

// appendWritten appends a write's reply: OK, or the error it met.
func appendWritten(dst []byte, w *subsystem.Written) []byte {
	if w.Err != nil {
		return appendErr(dst, w.Err)
	}
	return append(dst, wire.ReplyOK...)
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
// run in parallel. A SEARCH request allocates nothing, whatever is
// attached: fields are substrings of the line, keys parse in place, and
// the reply is appended into dst.
func (s *Server) ExecAppend(dst []byte, line string) []byte {
	t0 := s.admitNow()
	var req wire.Request
	wire.Parse(&req, line)
	dst, _ = s.exec(dst, line, &req, s.trc.Sample(), t0)
	return dst
}

// admitNow is the admission stamp of a request not admitted on its
// predecessor's end: now, or zero when nothing watches the request.
func (s *Server) admitNow() time.Time {
	if s.trc == nil && s.met == nil {
		return time.Time{}
	}
	return epoch.Add(time.Since(epoch))
}

// served is what one request leaves behind for whoever watches it: the
// clock it shares with the executor and, after a lookup, the engine and
// result a trace built after the fact is retraced from. A request that
// nothing watches has none (nil).
type served struct {
	clock subsystem.Clock
	eng   string
	sr    subsystem.SearchResult
}

// ck is the clock to hand the executor.
func (sv *served) ck() *subsystem.Clock {
	if sv == nil {
		return nil
	}
	return &sv.clock
}

// epoch anchors the request clock. An admission stamp is epoch plus one
// monotonic reading (time.Since), about half the price of time.Now,
// which reads the wall clock as well; a stamp's wall time is thus the
// process's start plus monotonic time and ignores later steps of the
// system clock — what a latency wants, and good enough for a trace's
// start_unix_ns.
var epoch = time.Now()

// exec runs one request admitted at t0 (admitNow, or its predecessor's
// end) and returns when it ended — the next burst member's t0. req is
// the line's parsed head and sampled what the 1-in-N sampler
// (Collector.Sample) said of it.
//
// Tracing is decided on admission (WithTracing): a pooled trace is
// materialised, and spans are recorded, only for a request the 1-in-N
// sampler picks or a *TID annotation tags. Every other request runs
// untraced between two stamps — t0, and the one clock read that times
// the operation, the executor's own when it observes one — and only if
// that latency passes the slowlog threshold is its entry built, after
// the fact, from what the request left behind (retain). Each command of
// a pipelined burst still has its own start and end, so slow burst
// members stay individually attributable.
func (s *Server) exec(dst []byte, line string, req *wire.Request, sampled bool, t0 time.Time) ([]byte, time.Time) {
	if s.trc == nil && s.met == nil {
		return s.execAppend(dst, req, nil, nil), t0
	}
	sv := served{clock: subsystem.Clock{T0: t0}}
	var tr *trace.Trace
	// The *TID annotation joins this request's trace to the caller's
	// trace id and is otherwise invisible.
	if sampled || (req.TID != 0 && s.trc != nil) {
		tr = s.trc.BeginAt(t0, sampled)
		tr.SetWire(req.TID, req.Span)
		tr.Request(req.Identity())
	}
	mark := len(dst)
	dst = s.execAppend(dst, req, &sv, tr)
	d := sv.clock.Dur
	if d == 0 || tr != nil {
		// Nothing observed the request below, or its trace has spans
		// that end after the executor's observation did.
		d = time.Since(t0)
	}
	if tr != nil || s.trc.SlowAdmit(d) {
		s.retain(tr, line, &sv, d, dst[mark:])
	}
	return dst, t0.Add(d)
}

// retain finishes a request that took d and is kept: tr is its trace,
// or nil for a request that ran untraced and turned out slow. That
// entry is built here from what the request left behind — identity from
// the line, the lookup summary and probe chain from the search result
// (subsystem.Retrace) — so it has no parse, lock_wait or encode span.
// Either way a write's wal_append span is its window on the shared
// clock.
func (s *Server) retain(tr *trace.Trace, line string, sv *served, d time.Duration, reply []byte) {
	if tr == nil {
		tr = s.trc.BeginAt(sv.clock.T0, false)
		var req wire.Request
		wire.Parse(&req, line) // again: the handler has consumed the first one's arguments
		tr.Request(req.Identity())
		if sv.eng != "" {
			s.con.Retrace(sv.eng, sv.sr, tr)
		}
	}
	if sv.clock.WALDur != 0 {
		tr.Add(trace.Event{Kind: trace.KindWALAppend, Offset: sv.clock.WALAt, Dur: sv.clock.WALDur})
	}
	tr.SetResult(wire.Head(wire.View(reply)))
	// On slowlog admission the trace is retained (immutable from here
	// on) and safe to read for the log record; otherwise Observe has
	// already recycled it and it must not be touched again.
	if slow := s.trc.Observe(tr, d); slow && s.log != nil {
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
}

// execAppend is the protocol engine proper: run the handler of the verb
// the line's head parsed to. sv is the request's state for whoever
// watches it; tr is nil unless the request is traced as it runs.
func (s *Server) execAppend(dst []byte, req *wire.Request, sv *served, tr *trace.Trace) []byte {
	v, fs := req.Verb, &req.Args
	switch req.Status {
	case wire.Empty:
		return append(dst, "ERR empty request"...)
	case wire.UnknownAnnotation:
		return append(append(dst, "ERR unknown annotation "...), req.Word...)
	case wire.BadTID:
		return append(append(dst, "ERR usage: "...), wire.TIDUsage...)
	case wire.UnknownVerb:
		return append(append(dst, "ERR unknown command "...), strings.ToUpper(req.Word)...)
	}
	switch v.ID {
	case wire.Search:
		eng, ok1 := fs.Next()
		keyS, ok2 := fs.Next()
		maskS, _ := fs.Next()
		if _, extra := fs.Next(); !ok1 || !ok2 || extra {
			return appendUsage(dst, v)
		}
		search, bad := parseKey(keyS, maskS)
		if bad != "" {
			return appendBadHex(dst, bad)
		}
		return s.searchAppend(dst, eng, search, sv, tr)
	case wire.Insert, wire.Delete, wire.MInsert, wire.MDelete, wire.TInsert:
		return s.execWriteAppend(dst, v, fs, sv)
	case wire.MSearch:
		return s.execMSearchAppend(dst, v, fs, sv)
	case wire.TSearch:
		return s.execTSearchAppend(dst, v, fs, sv, tr)
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

// execWriteAppend answers a write that joined no run — a traced or
// malformed one, or any through ExecAppend — as a run of one.
func (s *Server) execWriteAppend(dst []byte, v *wire.Verb, fs *wire.Scanner, sv *served) []byte {
	var ents [1]subsystem.JournalEntry
	var res [1]subsystem.Written
	var ok bool
	if dst, ok = s.parseWrite(dst, &ents[0], v, fs); !ok {
		return dst
	}
	var t0 time.Time
	if sv != nil {
		t0 = sv.clock.T0
	}
	s.applyRun(ents[:], res[:], t0)
	if sv != nil {
		sv.clock = res[0].Clock
	}
	return appendWritten(dst, &res[0])
}

// parseWrite reads a write's arguments — INSERT, DELETE, MINSERT,
// MDELETE or TINSERT — into the journal entry that names its mutation,
// Engine a view of the line, and reports whether they parse. When they
// do not, it appends the reply that says why, judged in the order the
// replies have always judged them: arity, then key, mask, data, text
// length and score, then the engine's type (gateType). A masked write
// stores its value bits under the mask zeroed, so equal rules have equal
// row images; TINSERT folds its text, the rest of the line, into the
// trigram key image and stores it with the 16-bit hex score.
func (s *Server) parseWrite(dst []byte, ent *subsystem.JournalEntry, v *wire.Verb, fs *wire.Scanner) ([]byte, bool) {
	eng, ok := fs.Next()
	var rec match.Record
	var accepts func(subsystem.EngineType) bool // nil: every engine type
	if v.ID == wire.TInsert {
		scoreS, ok2 := fs.Next()
		text := fs.Rest()
		if !ok || !ok2 || text == "" {
			return appendUsage(dst, v), false
		}
		if len(text) > wire.MaxText {
			return append(dst, "ERR text too long"...), false
		}
		score, err := strconv.ParseUint(scoreS, 16, 16)
		if err != nil {
			dst = append(dst, "ERR bad score "...)
			return strconv.AppendQuote(dst, scoreS), false
		}
		rec.Key, rec.Data, accepts = bitutil.Exact(trigram.Entry{Text: text}.Key()), bitutil.FromUint64(score), isTrigram
	} else {
		masked, data := v.ID == wire.MInsert || v.ID == wire.MDelete, v.ID == wire.Insert || v.ID == wire.MInsert
		keyS, ok2 := fs.Next()
		maskS, ok3 := "", true
		if masked {
			maskS, ok3 = fs.Next()
			accepts = ternaryWritable
		}
		dataS, ok4 := "", true
		if data {
			dataS, ok4 = fs.Next()
		}
		if _, extra := fs.Next(); !ok || !ok2 || !ok3 || !ok4 || extra {
			return appendUsage(dst, v), false
		}
		var bad string
		if rec.Key, bad = parseKey(keyS, maskS); bad != "" {
			return appendBadHex(dst, bad), false
		}
		if data {
			if rec.Data, ok = wire.ParseVec(dataS); !ok {
				return appendBadHex(dst, dataS), false
			}
		}
	}
	if accepts != nil {
		if dst, ok = s.gateType(dst, v, eng, accepts); !ok {
			return dst, false
		}
	}
	ent.Engine = eng
	if v.ID == wire.Delete || v.ID == wire.MDelete {
		ent.Op, ent.Key, ent.Rec = subsystem.JournalDelete, rec.Key, match.Record{}
	} else {
		ent.Op, ent.Key, ent.Rec = subsystem.JournalInsert, bitutil.Ternary{}, rec
	}
	return dst, true
}

// msearchState is what one MSEARCH request borrows: the parsed key list
// and the executor's bookkeeping for it. The list is truncated, not
// cleared, on its way back, and is never read before it is refilled.
type msearchState struct {
	keys []subsystem.PortKey
	sc   subsystem.MSearchScratch
}

var msearchStates = sync.Pool{New: func() any { return new(msearchState) }}

// execMSearchAppend answers MSEARCH in one pass over the line: keys are
// parsed while the fields are counted, and the first bad key is held
// back until the arity is known — it is judged over the whole argument
// list, so "MSEARCH db 12zz extra" is a usage error, not bad hex.
func (s *Server) execMSearchAppend(dst []byte, v *wire.Verb, fs *wire.Scanner, sv *served) []byte {
	p := msearchStates.Get().(*msearchState)
	reqs, bad := p.keys[:0], ""
	for port, ok := fs.Next(); ok; port, ok = fs.Next() {
		keyS, paired := fs.Next()
		if !paired {
			reqs = reqs[:0] // an odd argument list is as good as none
			break
		}
		// The key is parsed into its slot: one built beside it and copied
		// in is a store-forwarding stall per key.
		reqs = append(reqs, subsystem.PortKey{Port: port})
		key := &reqs[len(reqs)-1].Key // exact: the mask stays zero
		var hex bool
		if key.Value, hex = wire.ParseVec(keyS); !hex && bad == "" {
			bad = keyS
		}
	}
	switch {
	case len(reqs) == 0:
		dst = appendUsage(dst, v)
	case bad != "":
		dst = appendBadHex(dst, bad)
	default:
		dst = append(dst, wire.ReplyMResults...)
		out := s.con.MSearchServed(reqs, sv.ck(), &p.sc)
		for i := range out {
			r := &out[i] // by index: a ranged copy of a slot is a whole-struct copy per key
			dst = append(dst, ' ')
			switch {
			case r.Err == nil:
				dst = appendSearchReply(dst, r.Result.Found, r.Result.Erred, r.Result.Record.Data, ':')
			case errors.Is(r.Err, subsystem.ErrEngineUnavailable):
				dst = append(dst, wire.SlotUnavailable...)
			default:
				dst = append(dst, wire.SlotNoEngine...)
			}
		}
	}
	p.keys = reqs[:0]
	msearchStates.Put(p)
	return dst
}

// searchAppend runs one lookup and renders it — the tail SEARCH and
// TSEARCH share once each has built its search key: the parse span ends
// here, the encode span covers the reply.
func (s *Server) searchAppend(dst []byte, eng string, search bitutil.Ternary, sv *served, tr *trace.Trace) []byte {
	if tr.Enabled() {
		tr.Span(trace.KindParse, tr.Begin)
	}
	sr, err := s.con.SearchServed(eng, search, sv.ck(), tr)
	if err != nil {
		return appendErr(dst, err)
	}
	if sv != nil {
		sv.eng, sv.sr = eng, sr
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
