package cluster

import (
	"errors"
	"sync/atomic"
	"time"

	"caram/internal/metrics"
	"caram/internal/wire"
)

// Pool errors: a call's wire outcome in the router's vocabulary.
var (
	// The breaker is open or the backend shed with ERR BUSY: nothing was served.
	ErrBackendUnavailable = errors.New("cluster: backend unavailable")
	// The transport failed in flight: the request's fate is unknown
	// (retry only idempotent reads).
	ErrBackendDown = errors.New("cluster: backend connection failed")
	ErrPoolClosed  = errors.New("cluster: pool closed")
)

// Call is one in-flight request through a pool: the client's call,
// whose transport outcome Wait reads as the pool's errors.
type Call struct{ wire.Call }

// Wait is wire.Call.Wait with the failure mapped to the pool's errors.
func (c Call) Wait() ([]byte, error) {
	resp, err := c.Call.Wait()
	switch err {
	case nil, ErrBackendUnavailable: // answered, or shed by the breaker gate
	case wire.ErrBusy:
		err = ErrBackendUnavailable
	case wire.ErrClientClosed:
		err = ErrPoolClosed
	default: // dial, write or read failure, desync, oversized reply
		err = ErrBackendDown
	}
	return resp, err
}

// Pool is one backend's pipelined connection pool: K wire.Clients, a
// lane picks one per submission, and a circuit breaker fails
// submissions fast while the backend is unreachable; the router's
// health watcher probes it back to closed. The breaker and the
// backend's counters see the clients only through their hook.
type Pool struct {
	backend Backend
	met     *metrics.RouterBackend // nil-safe
	clients []*wire.Client
	next    atomic.Uint64 // round-robin client pick

	// Circuit breaker: consecutive transport failures at or beyond the
	// threshold open it until the deadline; any success closes it.
	failures  atomic.Int32
	openUntil atomic.Int64 // unix nanos; 0 = closed
	threshold int32
	backoff   time.Duration
}

// PoolConfig tunes a backend pool; the zero value of any field picks
// the default.
type PoolConfig struct {
	Conns            int           // persistent connections (default 4)
	BreakerThreshold int           // consecutive failures to open (default 3)
	BreakerBackoff   time.Duration // open duration (default 250ms)
	Metrics          *metrics.RouterBackend
}

// NewPool builds the pool and starts its clients. Connections dial
// lazily on first use, so building a pool against a dead backend
// succeeds — the breaker does the failing.
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
	p := &Pool{
		backend:   b,
		met:       cfg.Metrics,
		threshold: int32(cfg.BreakerThreshold),
		backoff:   cfg.BreakerBackoff,
	}
	p.clients = make([]*wire.Client, cfg.Conns)
	for i := range p.clients {
		p.clients[i] = wire.NewClient(b.Addr, wire.ClientConfig{Hook: poolHook{p}})
	}
	return p
}

// Submit sends one request line (with or without its trailing newline),
// copied, as a single-line batch on the next connection round-robin —
// for callers with no ordering needs across their own submissions.
// Release the call when done with the reply.
func (p *Pool) Submit(line []byte) Call {
	c := wire.NewBatch().Add(wire.View(wire.TrimEOL(line)))
	c.Batch().TSubmit = time.Now().UnixNano()
	p.submit(c.Batch(), p.next.Add(1))
	return Call{c}
}

// submit queues a filled batch on the lane's client: batches sharing a
// lane reach the backend in submission order, which preserves a
// client's own request order through the router.
func (p *Pool) submit(b *wire.Batch, lane uint64) {
	p.met.AddOps(b.Lines())
	p.met.DepthAdd(int64(b.Lines()))
	p.clients[lane%uint64(len(p.clients))].Submit(b)
}

// Close tears the pool down: connections close, queued and in-flight
// calls fail with ErrPoolClosed/ErrBackendDown.
func (p *Pool) Close() {
	for _, c := range p.clients {
		c.Close()
	}
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

// poolHook is the pool as its clients' wire.ClientHook: the breaker
// gates every batch and burst, hears each connection death and closes
// on each fully answered batch; the backend's counters take the writes
// and the settled lines.
type poolHook struct{ *Pool }

func (h poolHook) Gate() error {
	if h.BreakerOpen() {
		return ErrBackendUnavailable
	}
	return nil
}

func (h poolHook) Wrote(lines int) { h.met.ObserveBurst(lines) }

func (h poolHook) Settled(lines, failed int) {
	if failed > 0 {
		h.met.AddErrs(failed)
	} else {
		h.noteSuccess()
	}
	h.met.DepthAdd(-int64(lines))
}

func (h poolHook) Died() { h.noteFailure() }

// Probe asks the backend for HEALTH on a one-shot client outside the
// breaker gate, under a deadline, and feeds the outcome to the breaker:
// the health watcher's half-open probe and its early trip.
func (p *Pool) Probe(timeout time.Duration) bool {
	c := wire.NewClient(p.backend.Addr, wire.ClientConfig{DialTimeout: timeout})
	deadline := time.AfterFunc(timeout, c.Close) // fails the exchange if it hangs
	_, err := c.Do("HEALTH")
	deadline.Stop()
	c.Close()
	if err != nil {
		p.noteFailure()
		return false
	}
	p.noteSuccess()
	return true
}
