package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/metrics"
	"caram/internal/wire"
)

// Pool errors. ErrBackendUnavailable is the router-side shed: the
// backend's circuit breaker is open (or the backend shed us with ERR
// BUSY), so the request failed fast without touching the wire.
// ErrBackendDown is a transport failure on an in-flight request — the
// connection died between write and reply, so the request's fate on
// the backend is unknown (safe to retry only for idempotent reads).
var (
	ErrBackendUnavailable = errors.New("cluster: backend unavailable")
	ErrBackendDown        = errors.New("cluster: backend connection failed")
	ErrPoolClosed         = errors.New("cluster: pool closed")
)

const (
	// maxBurst caps how many queued batches one write coalesces; with
	// the submit queue it bounds a connection's pipeline depth.
	maxBurst = 256
	// submitQueue is each connection's submit-channel capacity;
	// submitters beyond it block (backpressure toward the client).
	submitQueue = 1024
)

// batch is the pool's unit of work: one submitter's request lines for
// one backend, back to back, answered by as many reply lines in
// pipeline order — so a client burst costs one queue operation, one
// FIFO entry and one completion signal per backend, not per line. The
// submitter owns the batch until submit and again after the done
// signal; in between the pool's goroutines do (the writer reads req and
// stamps before the FIFO hand-off, the reader appends replies). Reply k
// is valid for k < len(ends); the lines beyond failed with err — the
// first k replies of a dying connection are valid, the rest fail.
type batch struct {
	p    *Pool
	req  []byte  // n request lines, each '\n'-terminated
	n    int     // lines in req
	resp []byte  // reply lines back to back, terminators stripped
	ends []int32 // ends[k] is where reply k ends in resp
	err  error   // outcome of lines len(ends)..n-1; nil when all were answered

	done    chan struct{} // cap 1; signalled exactly once per flight
	settled bool          // the done token was consumed (wait is idempotent)

	// Unix nanos: submitted (Submit calls only), just before the Write it
	// rode in (0 = never reached a connection), completed; burst = lines
	// in that Write.
	tSubmit, tWrite, tDone int64
	burst                  int32
}

var batchPool = sync.Pool{
	New: func() any {
		return &batch{
			req:  make([]byte, 0, 512),
			resp: make([]byte, 0, 512),
			ends: make([]int32, 0, 16),
			done: make(chan struct{}, 1),
		}
	},
}

// reset empties a settled (or never submitted) batch for refilling.
func (b *batch) reset() {
	*b = batch{req: b.req[:0], resp: b.resp[:0], ends: b.ends[:0], done: b.done}
}

// wait blocks until the batch completes. Idempotent, but
// single-consumer: only the submitter may call it.
func (b *batch) wait() {
	if !b.settled {
		<-b.done
		b.settled = true
	}
}

// line returns request line i without its terminator, by scanning:
// only rare paths (a retry, a trace built after the fact) want one back.
func (b *batch) line(i int) []byte {
	rest := b.req
	for ; i > 0; i-- {
		rest = rest[bytes.IndexByte(rest, '\n')+1:]
	}
	return rest[:bytes.IndexByte(rest, '\n')]
}

// finish delivers the outcome: the replies collected so far stand, the
// remaining lines fail with err. Each batch is popped from the pending
// queue once, so this runs once per flight and the cap-1 channel never
// blocks; the pool must not touch the batch afterwards.
func (b *batch) finish(err error) {
	b.tDone = time.Now().UnixNano()
	if failed := b.n - len(b.ends); failed > 0 {
		b.err = err
		b.p.met.AddErrs(failed)
	}
	b.p.met.DepthAdd(-int64(b.n))
	b.done <- struct{}{}
}

// Call is one in-flight request: line i of a batch.
type Call struct {
	b *batch
	i int
}

// Wait blocks until the call completes and returns the reply line
// (without its trailing newline) or the transport error. Idempotent —
// scatter merges re-read settled calls freely — but single-consumer:
// only the goroutine that submitted may call it. The returned slice is
// owned by the batch; copy it out before Release.
func (c Call) Wait() ([]byte, error) {
	b := c.b
	b.wait()
	if c.i >= len(b.ends) {
		return nil, b.err
	}
	start := int32(0)
	if c.i > 0 {
		start = b.ends[c.i-1]
	}
	return b.resp[start:b.ends[c.i]], nil
}

// Release returns a Submit call's batch to the pool. The call must
// have completed (Wait returned) and the caller must be done with the
// slice Wait returned.
func (c Call) Release() {
	c.b.reset()
	batchPool.Put(c.b)
}

// Pool is one backend's pipelined connection pool: K persistent
// connections, each with a writer goroutine that coalesces concurrently
// arriving batches into a single Write (the network form of PR 3's
// ExecAppend burst flush) and a reader goroutine that matches reply
// lines to the waiting batches in FIFO pipeline order. A per-backend
// circuit breaker fails submissions fast while the backend is
// unreachable; the router's health watcher probes it back to closed.
type Pool struct {
	backend Backend
	met     *metrics.RouterBackend // nil-safe
	conns   []*pconn
	next    atomic.Uint64 // round-robin connection pick

	// Circuit breaker: consecutive transport failures at or beyond the
	// threshold open it until the deadline; any success closes it.
	failures  atomic.Int32
	openUntil atomic.Int64 // unix nanos; 0 = closed
	threshold int32
	backoff   time.Duration

	dialTimeout time.Duration
	done        chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup
}

// PoolConfig tunes a backend pool; the zero value of any field picks
// the default.
type PoolConfig struct {
	Conns            int           // persistent connections (default 4)
	BreakerThreshold int           // consecutive failures to open (default 3)
	BreakerBackoff   time.Duration // open duration (default 250ms)
	DialTimeout      time.Duration // per-dial bound (default 2s)
	Metrics          *metrics.RouterBackend
}

// NewPool builds the pool and starts its connection workers.
// Connections dial lazily on first use, so building a pool against a
// dead backend succeeds — the breaker does the failing.
func NewPool(b Backend, cfg PoolConfig) *Pool {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerBackoff <= 0 {
		cfg.BreakerBackoff = 250 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	p := &Pool{
		backend:     b,
		met:         cfg.Metrics,
		threshold:   int32(cfg.BreakerThreshold),
		backoff:     cfg.BreakerBackoff,
		dialTimeout: cfg.DialTimeout,
		done:        make(chan struct{}),
	}
	p.conns = make([]*pconn, cfg.Conns)
	for i := range p.conns {
		pc := &pconn{p: p, ch: make(chan *batch, submitQueue)}
		p.conns[i] = pc
		p.wg.Add(1)
		go pc.run()
	}
	return p
}

// Submit sends one request line (with or without its trailing newline)
// as a single-line batch on the next connection round-robin — for
// callers with no ordering needs across their own submissions (retries,
// the trace stitcher, probes of the pool itself). The line is copied;
// Release the call when done with the reply.
func (p *Pool) Submit(line []byte) Call {
	b := batchPool.Get().(*batch)
	b.req = append(append(b.req, wire.TrimEOL(line)...), '\n')
	b.n = 1
	b.tSubmit = time.Now().UnixNano()
	p.submit(b, p.next.Add(1))
	return Call{b: b}
}

// submit queues a filled batch on the lane's pipelined connection. All
// batches sharing a lane reach the backend in submission order (one
// connection, FIFO pipeline) — this is what preserves a client's own
// request ordering through the router while different lanes still
// coalesce onto the pool's connections. It fails fast — without
// queueing — while the breaker is open or the pool is closed.
func (p *Pool) submit(b *batch, lane uint64) {
	b.p = p
	p.met.AddOps(b.n)
	p.met.DepthAdd(int64(b.n))
	if p.BreakerOpen() {
		b.finish(ErrBackendUnavailable)
		return
	}
	pc := p.conns[lane%uint64(len(p.conns))]
	select {
	case pc.ch <- b:
	case <-p.done:
		b.finish(ErrPoolClosed)
	}
}

// Close tears the pool down: workers exit, connections close, queued
// and in-flight calls fail with ErrPoolClosed/ErrBackendDown.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.done) })
	p.wg.Wait()
}

// BreakerOpen reports whether submissions currently fail fast.
func (p *Pool) BreakerOpen() bool {
	u := p.openUntil.Load()
	return u != 0 && time.Now().UnixNano() < u
}

// noteFailure records one transport failure; at the threshold the
// breaker opens for the backoff window. Past the threshold the counter
// keeps the breaker primed: in the half-open window after expiry, a
// single further failure re-opens it immediately.
func (p *Pool) noteFailure() {
	if p.failures.Add(1) >= p.threshold {
		// Gauge first: noteSuccess lowers it only after seeing openUntil
		// set, so a racing success can never leave it raised over a
		// closed breaker.
		p.met.SetBreaker(true)
		p.openUntil.Store(time.Now().Add(p.backoff).UnixNano())
	}
}

// noteSuccess closes the breaker and clears the failure streak. The
// steady state (nothing failed, breaker closed) is two loads.
func (p *Pool) noteSuccess() {
	if p.failures.Load() != 0 {
		p.failures.Store(0)
	}
	if p.openUntil.Load() != 0 {
		p.openUntil.Store(0)
		p.met.SetBreaker(false)
	}
}

// pconn is one persistent pipelined connection: a submit queue its
// writer goroutine drains in bursts, and a per-dial reader goroutine
// that matches replies to batches in FIFO order.
type pconn struct {
	p  *Pool
	ch chan *batch
}

// gen is one dial generation: the live connection, the FIFO of batches
// written but not yet fully answered, and the cause of death its reader
// posts (nil while alive) so the writer stops using a half-closed conn
// and fails what it drains the same way the reader does.
type gen struct {
	conn    net.Conn
	pending chan *batch
	dead    atomic.Pointer[error]
}

// run is the writer loop: collect the queued batches, hand them to the
// reader's FIFO, write them all with one Write.
func (pc *pconn) run() {
	defer pc.p.wg.Done()
	var g *gen
	burst := make([]*batch, 0, maxBurst)
	wbuf := make([]byte, 0, 8*1024)
	teardown := func() {
		if g != nil {
			g.conn.Close() // reader fails the pending FIFO
			g = nil
		}
		// Fail whatever is still queued, then keep draining until Close
		// finishes so late submitters never hang.
		for {
			select {
			case b := <-pc.ch:
				b.finish(ErrPoolClosed)
			default:
				return
			}
		}
	}
	for {
		var first *batch
		select {
		case first = <-pc.ch:
		case <-pc.p.done:
			teardown()
			return
		}
		// Coalesce everything that arrived while we slept into one
		// Write — concurrently submitting clients share one flush.
		burst = append(burst[:0], first)
	drain:
		for len(burst) < maxBurst {
			select {
			case b := <-pc.ch:
				burst = append(burst, b)
			default:
				break drain
			}
		}
		if pc.p.BreakerOpen() {
			failBurst(burst, ErrBackendUnavailable)
			continue
		}
		if g != nil && g.dead.Load() != nil {
			g.conn.Close()
			g = nil
		}
		if g == nil {
			conn, err := net.DialTimeout("tcp", pc.p.backend.Addr, pc.p.dialTimeout)
			if err != nil {
				pc.p.noteFailure()
				failBurst(burst, ErrBackendDown)
				continue
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true) // bursts are already coalesced; don't let Nagle re-delay them
			}
			g = &gen{conn: conn, pending: make(chan *batch, submitQueue+maxBurst)}
			pc.p.wg.Add(1)
			go pc.read(g)
		}
		wbuf = wbuf[:0]
		lines := 0
		for _, b := range burst {
			wbuf = append(wbuf, b.req...)
			lines += b.n
		}
		// Stamp, then hand off to the FIFO, then write: once a batch is in
		// pending the reader may finish it concurrently, and replies
		// arrive in pipeline order, so the reader must never see a reply
		// whose batch it cannot pop.
		now := time.Now().UnixNano() // one clock read per Write
		for _, b := range burst {
			b.tWrite, b.burst = now, int32(lines)
			g.pending <- b
		}
		pc.p.met.ObserveBurst(lines)
		_, err := g.conn.Write(wbuf)
		if cause := g.dead.Load(); err != nil || cause != nil {
			// Write failed, or the reader died underneath us after its
			// final drain: close, fail what remains, and start fresh
			// next burst. Both sides may drain pending concurrently;
			// each batch is popped exactly once either way.
			g.conn.Close()
			if cause == nil {
				cause = &ErrBackendDown
			}
			drainPending(g, *cause)
			if err != nil {
				pc.p.noteFailure()
			}
			g = nil
		}
	}
}

// read is one generation's reader: append reply lines to the head
// batch of the FIFO, completing it on its last line, until the
// connection dies; then fail the unanswered tail of the head batch and
// everything behind it.
func (pc *pconn) read(g *gen) {
	defer pc.p.wg.Done()
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(g.conn)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	var head *batch // popped, partly answered
	kill := func(err error) {
		// Post dead first, then drain: the writer re-checks dead after
		// its own enqueues, so no batch is left stranded between the two
		// drains.
		g.dead.Store(&err)
		g.conn.Close()
		pc.p.noteFailure()
		if head != nil {
			head.finish(err)
		}
		drainPending(g, err)
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			// Transport or framing failure (a reply over MaxLineBytes is
			// ErrBufferFull — unrecoverable mid-stream, same as the
			// server's own line bound).
			kill(ErrBackendDown)
			return
		}
		line = wire.TrimEOL(line)
		if wire.View(line) == wire.ReplyBusy {
			// The backend's accept-time load-shed line (one per shed
			// connection, then close): this connection never entered
			// service, so everything pipelined on it fails unavailable
			// and the breaker trips.
			kill(ErrBackendUnavailable)
			return
		}
		if head == nil {
			select {
			case head = <-g.pending:
			default:
				// A reply with no awaiting request: protocol desync. Kill
				// the connection rather than mismatch replies.
				kill(ErrBackendDown)
				return
			}
		}
		head.resp = append(head.resp, line...)
		head.ends = append(head.ends, int32(len(head.resp)))
		if len(head.ends) == head.n {
			head.finish(nil)
			head = nil
			pc.p.noteSuccess()
		}
	}
}

// drainPending fails every batch still in the generation's FIFO.
func drainPending(g *gen, err error) {
	for {
		select {
		case b := <-g.pending:
			b.finish(err)
		default:
			return
		}
	}
}

// failBurst fails batches that never reached a connection.
func failBurst(burst []*batch, err error) {
	for _, b := range burst {
		b.finish(err)
	}
}

// readerPool recycles the per-dial reply readers; sized to the
// server's own line bound so an oversized reply is a framing error,
// not a silent truncation.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, wire.MaxLineBytes) },
}

// Probe dials the backend directly — outside the pool and its breaker
// gate — sends one HEALTH line, and reports whether a reply came back.
// The router's health watcher uses it to detect recovery while the
// breaker is open (the half-open probe) and to trip the breaker early
// when a quiet backend dies.
func (p *Pool) Probe(timeout time.Duration) bool {
	conn, err := net.DialTimeout("tcp", p.backend.Addr, timeout)
	if err != nil {
		p.noteFailure()
		return false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte("HEALTH\n")); err != nil {
		p.noteFailure()
		return false
	}
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil || n == 0 || strings.HasPrefix(wire.View(buf[:n]), wire.ReplyBusy) {
		p.noteFailure()
		return false
	}
	p.noteSuccess()
	return true
}
