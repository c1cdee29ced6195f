package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client errors: what a line that got no reply failed with.
var (
	ErrBusy         = errors.New("wire: server busy")     // shed at accept with ERR BUSY; nothing on it was served
	ErrConnLost     = errors.New("wire: connection lost") // closed, failed or desynced in flight; the line's fate is unknown
	ErrReplyTooLong = errors.New("wire: reply too long")  // a reply passed MaxLineBytes: a framing error
	ErrDial         = errors.New("wire: dial failed")     // nothing was sent
	ErrClientClosed = errors.New("wire: client closed")   // Close came before the line was written
)

const (
	// maxBurst caps how many queued batches one write coalesces; with
	// the submit queue it bounds a connection's pipeline depth.
	maxBurst = 256
	// submitQueue is the submit channel's capacity; submitters beyond it
	// block (backpressure toward the caller).
	submitQueue = 1024
)

// Batch is a Client's unit of work: one submitter's request lines back
// to back — one queue operation, one FIFO entry and one completion
// signal per burst. The client's goroutines own it from Submit until it
// completed.
type Batch struct {
	Req []byte // '\n'-terminated lines; append a line's bytes, then EndLine

	// Unix nanos: TSubmit is the submitter's, TWrite precedes the Write
	// the batch rode in (0 = none), TDone is completion; Burst is the
	// lines in that Write.
	TSubmit, TWrite, TDone int64
	Burst                  int32

	c       *Client       // whose hook hears it settle; nil until submitted
	n       int           // lines in Req
	resp    []byte        // reply lines back to back, terminators stripped
	ends    []int32       // ends[k] is where reply k ends in resp
	err     error         // outcome of lines len(ends)..n-1
	done    chan struct{} // cap 1; signalled exactly once per flight
	settled bool          // the done token was consumed (Wait is idempotent)
}

var batchPool = sync.Pool{
	New: func() any {
		return &Batch{
			Req:  make([]byte, 0, 512),
			resp: make([]byte, 0, 512),
			ends: make([]int32, 0, 16),
			done: make(chan struct{}, 1),
		}
	},
}

// NewBatch returns an empty pooled batch.
func NewBatch() *Batch { return batchPool.Get().(*Batch) }

// EndLine terminates the line appended to Req and returns its call.
func (b *Batch) EndLine() Call {
	b.Req = append(b.Req, '\n')
	b.n++
	return Call{b: b, i: b.n - 1}
}

// Add appends one request line, without its terminator.
func (b *Batch) Add(line string) Call {
	b.Req = append(b.Req, line...)
	return b.EndLine()
}

// Lines returns the number of request lines in the batch.
func (b *Batch) Lines() int { return b.n }

// Reset empties a completed (or never submitted) batch for refilling.
func (b *Batch) Reset() {
	*b = Batch{Req: b.Req[:0], resp: b.resp[:0], ends: b.ends[:0], done: b.done}
}

// Release resets the batch and returns it to the pool.
func (b *Batch) Release() {
	b.Reset()
	batchPool.Put(b)
}

// Wait blocks until the batch completed. Idempotent, but
// single-consumer: only the submitter may call it.
func (b *Batch) Wait() {
	if !b.settled {
		<-b.done
		b.settled = true
	}
}

// Answer appends the reply to the next unanswered line (the client's
// reader, or an in-process responder, answers through it).
func (b *Batch) Answer(reply []byte) {
	b.resp = append(b.resp, reply...)
	b.ends = append(b.ends, int32(len(b.resp)))
}

// Finish completes the batch, once per flight: the replies so far
// stand, the remaining lines fail with err.
func (b *Batch) Finish(err error) {
	b.TDone = time.Now().UnixNano()
	failed := b.n - len(b.ends)
	if failed > 0 {
		b.err = err
	}
	if b.c != nil {
		b.c.hook.Settled(b.n, failed)
	}
	b.done <- struct{}{}
}

// Call is one request line of a batch.
type Call struct {
	b *Batch
	i int
}

// Wait blocks until the call's batch completed and returns the reply
// line (without its newline) or the error the line failed with.
// Idempotent, but single-consumer: only the submitter may call it. The
// reply is owned by the batch; copy it out before Release.
func (c Call) Wait() ([]byte, error) {
	b := c.b
	b.Wait()
	if c.i >= len(b.ends) {
		return nil, b.err
	}
	start := int32(0)
	if c.i > 0 {
		start = b.ends[c.i-1]
	}
	return b.resp[start:b.ends[c.i]], nil
}

// Release returns the call's completed batch to the pool.
func (c Call) Release() { c.b.Release() }

// Batch returns the call's batch: nil for the zero Call.
func (c Call) Batch() *Batch { return c.b }

// Line returns the call's request line without its terminator, by
// scanning (for rare paths: a retry, a late-built trace).
func (c Call) Line() []byte {
	rest := c.b.Req
	for i := c.i; i > 0; i-- {
		rest = rest[bytes.IndexByte(rest, '\n')+1:]
	}
	return rest[:bytes.IndexByte(rest, '\n')]
}

// ClientHook is what a Client asks before it sends and tells about its
// transport. Gate runs on the submitting goroutine and the writer, the
// rest on the client's goroutines; none may block.
type ClientHook interface {
	Gate() error               // before a batch is queued and before a burst is dialed for and written: non-nil fails them with it
	Wrote(lines int)           // a coalesced write of lines request lines is about to go out
	Settled(lines, failed int) // a batch of lines completed, failed of them unanswered
	Died()                     // a dial, a write or a reply stream failed (ended, desynced, overflowed, shed busy)
}

type noHook struct{}

func (noHook) Gate() error      { return nil }
func (noHook) Wrote(int)        {}
func (noHook) Settled(int, int) {}
func (noHook) Died()            {}

// ClientConfig tunes a Client; a zero field picks its default.
type ClientConfig struct {
	DialTimeout time.Duration // per-dial bound (default 2s)
	Hook        ClientHook    // nil = none
}

// Client is one lazily dialed, self-redialing, pipelined connection to
// one address (see "Client" in the package comment).
type Client struct {
	addr      string
	cfg       ClientConfig
	hook      ClientHook
	ch        chan *Batch
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewClient starts a client for addr; nothing is dialed until the first
// batch is written.
func NewClient(addr string, cfg ClientConfig) *Client {
	c := &Client{addr: addr, cfg: cfg, hook: cfg.Hook, ch: make(chan *Batch, submitQueue), done: make(chan struct{})}
	if c.cfg.DialTimeout <= 0 {
		c.cfg.DialTimeout = 2 * time.Second
	}
	if c.hook == nil {
		c.hook = noHook{}
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// Submit queues a filled batch; batches reach the server in submission
// order. It fails unqueued when the gate says so or the client closed.
func (c *Client) Submit(b *Batch) {
	b.c = c
	if err := c.hook.Gate(); err != nil {
		b.Finish(err)
		return
	}
	select {
	case c.ch <- b:
	case <-c.done:
		b.Finish(ErrClientClosed)
	}
}

// Do sends one request line (without its terminator) as a one-line
// batch and blocks for its reply.
func (c *Client) Do(line string) (string, error) {
	call := NewBatch().Add(line)
	c.Submit(call.b)
	reply, err := call.Wait()
	s := string(reply)
	call.Release()
	return s, err
}

// Close tears the client down: the connection closes, queued batches
// fail with ErrClientClosed and in-flight ones with ErrConnLost.
// Idempotent.
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
}

// gen is one dial generation: the connection, the FIFO of batches
// written but not fully answered, and the cause of death its reader
// posts (nil while alive) for the writer.
type gen struct {
	conn    net.Conn
	pending chan *Batch
	dead    atomic.Pointer[error]
}

// run is the writer loop: collect the queued batches, hand them to the
// reader's FIFO, write them all with one Write.
func (c *Client) run() {
	defer c.wg.Done()
	var g *gen
	burst := make([]*Batch, 0, maxBurst)
	wbuf := make([]byte, 0, 8*1024)
	for {
		var first *Batch
		select {
		case first = <-c.ch:
		case <-c.done:
			if g != nil {
				g.conn.Close() // the reader fails the pending FIFO
			}
			failQueued(c.ch, ErrClientClosed)
			return
		}
		// Everything that arrived while we slept shares one Write.
		burst = append(burst[:0], first)
	drain:
		for len(burst) < maxBurst {
			select {
			case b := <-c.ch:
				burst = append(burst, b)
			default:
				break drain
			}
		}
		if err := c.hook.Gate(); err != nil {
			failAll(burst, err)
			continue
		}
		if g != nil && g.dead.Load() != nil {
			g.conn.Close()
			g = nil
		}
		if g == nil {
			conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
			if err != nil {
				c.hook.Died()
				failAll(burst, ErrDial)
				continue
			}
			// pending bounds the batches in flight on one connection; a
			// full FIFO blocks the writer (backpressure, like the queue).
			g = &gen{conn: conn, pending: make(chan *Batch, submitQueue+maxBurst)}
			c.wg.Add(1)
			go c.read(g)
		}
		wbuf = wbuf[:0]
		lines := 0
		for _, b := range burst {
			wbuf = append(wbuf, b.Req...)
			lines += b.n
		}
		// Stamp, then hand off to the FIFO, then write: once a batch is in
		// pending the reader may finish it concurrently, and replies
		// arrive in pipeline order, so the reader must never see a reply
		// whose batch it cannot pop.
		now := time.Now().UnixNano() // one clock read per Write
		for _, b := range burst {
			b.TWrite, b.Burst = now, int32(lines)
			g.pending <- b
		}
		c.hook.Wrote(lines)
		_, err := g.conn.Write(wbuf)
		if cause := g.dead.Load(); err != nil || cause != nil {
			// Write failed, or the reader died after its final drain:
			// fail what remains (each batch is popped exactly once) and
			// redial next burst.
			g.conn.Close()
			if cause == nil {
				cause = &ErrConnLost
			}
			failQueued(g.pending, *cause)
			if err != nil {
				c.hook.Died()
			}
			g = nil
		}
	}
}

// read is one generation's reader: append reply lines to the head
// batch of the FIFO, completing it on its last line, until the
// connection dies; then fail the unanswered tail of the head batch and
// everything behind it.
func (c *Client) read(g *gen) {
	defer c.wg.Done()
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(g.conn)
	defer func() { br.Reset(nil); readerPool.Put(br) }()
	var head *Batch // popped, partly answered
	cause := ErrConnLost
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) { // past MaxLineBytes: unrecoverable
				cause = ErrReplyTooLong
			}
			break
		}
		line = TrimEOL(line)
		if View(line) == ReplyBusy { // shed at accept: nothing on it was served
			cause = ErrBusy
			break
		}
		if head == nil {
			select {
			case head = <-g.pending:
			default:
			}
		}
		if head == nil { // a reply nobody awaits: desync; never mis-pair
			break
		}
		head.Answer(line)
		if len(head.ends) == head.n {
			head.Finish(nil)
			head = nil
		}
	}
	// Post dead first, then drain: the writer re-checks dead after its own
	// enqueues, so no batch is left stranded between the two drains.
	g.dead.Store(&cause)
	g.conn.Close()
	c.hook.Died()
	if head != nil {
		head.Finish(cause)
	}
	failQueued(g.pending, cause)
}

// failQueued fails every batch waiting in ch.
func failQueued(ch chan *Batch, err error) {
	for {
		select {
		case b := <-ch:
			b.Finish(err)
		default:
			return
		}
	}
}

// failAll fails batches that never reached a connection.
func failAll(burst []*Batch, err error) {
	for _, b := range burst {
		b.Finish(err)
	}
}

// readerPool recycles the per-dial reply readers, sized to the line
// bound so an oversized reply is a framing error, not a truncation.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, MaxLineBytes) },
}
