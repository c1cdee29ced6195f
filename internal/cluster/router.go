package cluster

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/metrics"
	"caram/internal/trace"
	"caram/internal/wire"
)

// Router puts N caram-server backends behind one wire endpoint. It
// speaks the internal/wire line protocol on both sides: each incoming
// line's head is parsed by the same wire.Parse the server runs, the
// verb's table row says how the line is placed, the raw bytes forward
// over the backend's pipelined pool, and the reply returns verbatim —
// the router is protocol-transparent for single-backend-owned
// operations, *TID-annotated ones included (routed by the inner verb,
// forwarded as the client wrote them).
//
// Routing table (route reads it off wire.Verb.Place):
//
//   - INSERT/SEARCH/DELETE <eng> <key>: the ring owner of (engine,
//     key) — the key participates canonically (ParseVec), so every
//     spelling of the same key routes identically. Keys of one engine
//     spread across all backends (key sharding).
//   - Pinned engines (typed engines created through the router, plus
//     the -pin list) live wholly on their home backend — the ring
//     owner of the engine name — because longest-prefix,
//     highest-priority, and trigram ranking are only correct over the
//     whole rule set. All their ops forward home.
//   - SEARCH <eng> <key> <mask> on a sharded engine scatters to every
//     backend: first HIT in address order, else MISS! if any backend
//     could not rule the key out, else MISS (a masked probe can match
//     a record on any shard).
//   - MSEARCH splits its pairs by ring owner, issues one pipelined
//     MSEARCH per involved backend concurrently, and reassembles the
//     slots in the caller's original order. A dead backend's slots
//     answer ERR:unavailable, never a shifted reply.
//   - CREATE ENGINE ... TYPE exact and DROP of sharded engines
//     broadcast (every backend must carry a sharded engine); typed
//     CREATEs forward to the engine's home and pin it.
//   - STATS <eng> on a sharded engine scatters and aggregates: n,
//     hits, misses sum; alpha is the mean load factor; amal is the
//     lookup-weighted mean. HEALTH merges per-engine worst states;
//     HEALTH <eng> [SCRUB] on sharded engines sums the counters.
//     ENGINES unions the rosters in address order.
//   - METRICS, SLOWLOG and TRACE answer fleet-wide: METRICS scatters
//     and sums counters, the router's own totals alongside (LATENCY
//     histograms merge bucket-wise); SLOWLOG LEN sums and SLOWLOG GET
//     scatter/gathers every backend's slowlog plus the router's own,
//     k-way merged by latency and node=-tagged; TRACE GET answers from
//     the router's rings or any backend's.
//   - WAL STATUS scatters and merges into one fleet line: lsn /
//     durable / segments sum, snapshot_lsn is the fleet minimum (the
//     replay bound), sync is the common policy or "mixed". Any node
//     answering ERR (wal disabled) fails the whole merge with that
//     ERR — a partial sum would overstate durability.
//   - Anything unparseable forwards to backend 0 so the backend's own
//     grammar renders the authoritative ERR, byte-identical to a
//     direct connection.
//
// Failure handling: transport failures trip the backend pool's
// circuit breaker; while it is open, requests shed fast with "ERR
// unavailable" (slots: "ERR:unavailable") — never a silently wrong
// reply. Of a batch whose connection died, the replies already read
// stand; in the rest, idempotent reads (SEARCH, TSEARCH, EXPLAIN) retry
// one by one with backoff on a fresh pool connection, bounded by
// Retries; writes never retry (their fate on the backend is unknown).
// The health watcher probes HEALTH on every backend each interval,
// tripping breakers of quiet-dead backends and closing them on
// recovery.
//
// A router is always metered (Metrics) and always collecting
// (RouterConfig.Tracing). Its ring shape and timing are constants:
// DefaultReplicas virtual nodes per backend, the pool's 2 s dial bound,
// healthTimeout and retryBackoff.
type Router struct {
	ring  *Ring
	pools []*Pool
	met   *metrics.RouterMetrics
	log   *slog.Logger
	trc   *trace.Collector
	order []int // backend indices sorted by address: scatter-merge iteration order

	pinMu  sync.Mutex
	pinned atomic.Pointer[map[string]bool] // COW; read on the hot path

	retries int

	watcherStop chan struct{}
	watcherWG   sync.WaitGroup

	// ep is the connection lifecycle, the same one the server runs
	// (internal/wire): accept, panic fence, burst read loop, drain.
	ep *wire.Endpoint
}

// ErrRouterClosed is returned by Serve after Close.
var ErrRouterClosed = errors.New("cluster: router closed")

// RouterConfig configures NewRouter. Backends is required; everything
// else has working defaults.
type RouterConfig struct {
	Backends []Backend
	Pin      []string // engine names pinned to their home backend at boot

	Conns            int           // connections per backend pool (default 4)
	BreakerThreshold int           // consecutive failures to open a breaker (default 3)
	BreakerBackoff   time.Duration // breaker open window (default 250ms)

	Retries        int           // idempotent-read resubmissions (0 = none)
	HealthInterval time.Duration // HEALTH probe period (0 = watcher off)

	Logger *slog.Logger // optional

	// Tracing is the router's trace collector: head-sampled requests tag
	// their forwards with a wire trace id so backend traces become
	// children, and requests past the slowlog threshold get the router's
	// own spans (ring lookup, queue wait, backend RTT, retries, breaker)
	// built at settle. nil is an idle collector (trace.Config{Slowlog:
	// -1}) that samples and retains nothing; TRACE GET, SLOWLOG and
	// METRICS answer fleet-wide either way.
	Tracing *trace.Collector
}

// The router's fixed timing: the first retry's delay (doubling per
// attempt) and the health watcher's per-probe bound.
const (
	retryBackoff  = 2 * time.Millisecond
	healthTimeout = time.Second
)

// NewRouter builds the ring, the registry and one pipelined pool per
// backend, and starts the health watcher when HealthInterval is set.
func NewRouter(cfg RouterConfig) (*Router, error) {
	labels := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		labels[i] = b.Label
	}
	ring, err := NewRing(labels, DefaultReplicas)
	if err != nil {
		return nil, err
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("cluster: negative retries %d", cfg.Retries)
	}
	rt := &Router{
		ring:    ring,
		met:     metrics.NewRouterMetrics(labels),
		log:     cfg.Logger,
		trc:     cfg.Tracing,
		retries: cfg.Retries,
		ep:      wire.NewEndpoint(ErrRouterClosed, cfg.Logger),
	}
	if cfg.Tracing == nil {
		rt.trc = trace.NewCollector(trace.Config{Slowlog: -1}) // idle
	}
	// Every scatter merge iterates backends in address order, not config
	// order, so admin output is stable regardless of how the backend
	// list was spelled (ties — tests use synthetic labels — break by
	// label, then config position).
	rt.order = make([]int, len(cfg.Backends))
	for i := range rt.order {
		rt.order[i] = i
	}
	sort.SliceStable(rt.order, func(a, b int) bool {
		ba, bb := cfg.Backends[rt.order[a]], cfg.Backends[rt.order[b]]
		if ba.Addr != bb.Addr {
			return ba.Addr < bb.Addr
		}
		return ba.Label < bb.Label
	})
	rt.pools = make([]*Pool, len(cfg.Backends))
	for i, b := range cfg.Backends {
		rt.pools[i] = NewPool(b, PoolConfig{
			Conns:            cfg.Conns,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerBackoff:   cfg.BreakerBackoff,
			Metrics:          rt.met.Backend(i),
		})
	}
	pins := make(map[string]bool, len(cfg.Pin))
	for _, name := range cfg.Pin {
		if name != "" {
			pins[name] = true
		}
	}
	rt.pinned.Store(&pins)
	if cfg.HealthInterval > 0 {
		rt.watcherStop = make(chan struct{})
		rt.watcherWG.Add(1)
		go rt.watch(cfg.HealthInterval)
	}
	return rt, nil
}

// Ring returns the router's ring (tests pin assignments through it).
func (rt *Router) Ring() *Ring { return rt.ring }

// Metrics returns the router's per-backend registry; its Exposition is
// the router's /metrics.
func (rt *Router) Metrics() *metrics.RouterMetrics { return rt.met }

// Pool returns backend b's pool.
func (rt *Router) Pool(b int) *Pool { return rt.pools[b] }

// Pinned reports whether the engine routes whole to its home backend.
func (rt *Router) Pinned(engine string) bool {
	return (*rt.pinned.Load())[engine]
}

// pin/unpin swap a fresh copy-on-write map; mutation is rare (CREATE/
// DROP of typed engines), reads are an atomic load.
func (rt *Router) pin(engine string, on bool) {
	rt.pinMu.Lock()
	defer rt.pinMu.Unlock()
	cur := *rt.pinned.Load()
	if cur[engine] == on {
		return
	}
	next := make(map[string]bool, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if on {
		next[engine] = true
	} else {
		delete(next, engine)
	}
	rt.pinned.Store(&next)
}

// watch is the health watcher: probe every backend each tick. Probes
// bypass the pools (and their breaker gates), so an open breaker still
// gets its half-open recovery check and a quiet-dead backend trips
// before client traffic has to discover it.
func (rt *Router) watch(interval time.Duration) {
	defer rt.watcherWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-rt.watcherStop:
			return
		case <-tick.C:
			for i, p := range rt.pools {
				wasOpen := p.BreakerOpen()
				up := p.Probe(healthTimeout)
				if rt.log != nil && up == wasOpen { // state change either direction
					if up {
						rt.log.Info("backend recovered", "backend", rt.ring.Label(i))
					} else {
						rt.log.Warn("backend unhealthy", "backend", rt.ring.Label(i))
					}
				}
			}
		}
	}
}

// Serve accepts connections until the listener closes or the router
// shuts down with Close. The router arms no connection cap and no read
// deadlines: no deployment of it needs either yet.
func (rt *Router) Serve(l net.Listener) error {
	return rt.ep.Serve(l, wire.Limits{}, rt.Handle)
}

// Close shuts the router down gracefully: the endpoint closes the
// listeners, nudges every client connection and waits until each
// handler has settled and answered the bursts it had already read;
// then the watcher stops and the backend pools tear down. (Pools close
// last — a draining handler still holds in-flight calls.)
func (rt *Router) Close() error {
	if first := rt.ep.Close(); first && rt.watcherStop != nil {
		close(rt.watcherStop)
	}
	rt.watcherWG.Wait()
	for _, p := range rt.pools {
		p.Close()
	}
	return nil
}

// opKind is the settle-time shape of one dispatched request.
type opKind uint8

const (
	opForward opKind = iota // one call, verbatim reply
	opLocal                 // precomputed router-side reply
	opMSearch               // per-backend MSEARCH calls + slot plan
	opScatter               // per-backend calls + merge rule
)

// mergeFn is a scatter reassembly rule: it appends the one reply the
// client gets to out, from the per-backend replies in op.calls.
type mergeFn func(rt *Router, out []byte, op *pendingOp) []byte

// pendingOp is one in-flight request of a client burst. The struct
// and its slices are reused across bursts (nextOp), so the forward
// path allocates nothing. An op carries stamps, not a trace: t0, the
// settle trigger's stamp and its calls' batch stamps are enough to build
// every router span after the fact, if settle finds the op worth keeping.
type pendingOp struct {
	kind       opKind
	merge      mergeFn    // opScatter
	verb       *wire.Verb // opScatter: the row a merge reads its reply head and fold rules from
	backend    int        // opForward target
	idempotent bool       // retry on in-flight transport death
	retries    int        // opForward: resubmissions made (calls[0] is then the last one)
	pin        string
	unpin      string
	calls      []Call       // opForward: 1; scatter/msearch: per-backend (zero Call = uninvolved)
	slotBk     []int        // opMSearch: original slot -> backend
	local      []byte       // opLocal reply
	req        []byte       // opLocal: the request line (no batch holds it)
	mark       int          // where this op's reply starts in the out buffer
	t0         int64        // dispatch stamp, unix nanos
	tr         *trace.Trace // set at dispatch only for head-sampled ops
}

func (op *pendingOp) reset() {
	op.kind, op.merge, op.verb, op.backend, op.idempotent, op.retries = opForward, nil, nil, 0, false, 0
	op.pin, op.unpin = "", ""
	op.calls = op.calls[:0]
	op.slotBk = op.slotBk[:0]
	op.local = op.local[:0]
	op.req = op.req[:0]
	op.mark, op.t0, op.tr = 0, 0, nil
}

// rconn is one client connection's reusable state — the router's half
// of a connection (wire.Session): the pending-op arena, the per-backend
// batches the current burst is filling, and the scatter scratch. lane
// is the client's sticky pool lane: every batch this client submits to
// a given backend rides one connection, so its own requests reach that
// backend in order (the pipelining contract a direct connection
// gives); different clients land on different lanes and coalesce.
type rconn struct {
	rt    *Router
	lane  uint64
	ops   []pendingOp
	cur   []*wire.Batch  // per backend: the batch this burst fills (nil until first used)
	cut   []*wire.Batch  // submitted outside the settle trigger: over-threshold batches, retries
	marks []int          // per backend: where the line last opened starts in cur[b].Req (MSEARCH: -1 = none yet)
	curs  []wire.Scanner // per backend: where MSEARCH reassembly stands in its MRESULTS reply
	tr    *trace.Trace   // head-sampled trace of the request currently dispatching
	cmdb  []byte         // rewritten-command scratch (METRICS ... LATENCY -> HIST)
	req   wire.Request   // the request currently dispatching, parsed in place
}

// laneCounter hands each handled connection its lane.
var laneCounter atomic.Uint64

var rconnPool = sync.Pool{New: func() any { return new(rconn) }}

// nextOp returns a reset pendingOp slot, reusing backing arrays.
func (st *rconn) nextOp() *pendingOp {
	if len(st.ops) < cap(st.ops) {
		st.ops = st.ops[:len(st.ops)+1]
	} else {
		st.ops = append(st.ops, pendingOp{})
	}
	op := &st.ops[len(st.ops)-1]
	op.reset()
	return op
}

// maxClientPipeline bounds how many pending ops accumulate before a
// settle is forced even though more pipelined requests are buffered;
// flushThreshold bounds a batch's request bytes — one that passes it is
// submitted at once instead of waiting for the settle trigger.
const (
	flushThreshold    = 32 * 1024
	maxClientPipeline = 512
)

// Handle processes one client connection's request stream through the
// endpoint's burst read loop: every request already buffered is
// dispatched into its backend's batch, then the burst settles: the
// batches are submitted (they coalesce with other clients' into pool
// write bursts) and awaited, the replies reassembled in request order,
// and the endpoint flushes once. Split from Serve so tests drive it
// over arbitrary pipes; safe for concurrent use by any number of
// connections.
func (rt *Router) Handle(r io.Reader, w io.Writer) {
	st := rconnPool.Get().(*rconn)
	st.rt = rt
	st.lane = laneCounter.Add(1)
	if len(st.cur) < len(rt.pools) {
		st.cur = make([]*wire.Batch, len(rt.pools))
		st.marks = make([]int, len(rt.pools))
		st.curs = make([]wire.Scanner, len(rt.pools))
	}
	rt.ep.Handle(r, w, st)
	// Not deferred: after a panic mid-burst ops and cur still hold the
	// dead client's unsent lines, and the next connection to draw this
	// rconn would execute them. A normal return comes after a Settle,
	// which leaves both empty.
	rconnPool.Put(st)
}

// Request dispatches one request line: append it to its backend
// batch(es) and record the pending op. Nothing is submitted and nothing
// blocks — that is Settle's job — so a pipelined client burst reaches
// each pool as one batch; the burst is full at maxClientPipeline pending
// ops. Tracing follows one rule: a tier tags a downstream request only
// when the trace is already certain to be kept. So only head-sampled
// requests get a trace (and a *TID tag) here; every other op carries
// just its dispatch stamp and is judged at settle.
func (st *rconn) Request(out, line []byte) ([]byte, bool) {
	rt := st.rt
	now := time.Now()
	var tr *trace.Trace
	if rt.trc.Sample() {
		tr = rt.trc.BeginAt(now, true)
	}
	st.tr = tr
	rt.route(st, wire.View(line))
	op := &st.ops[len(st.ops)-1] // every route path appends exactly one op
	op.t0, op.tr = now.UnixNano(), tr
	st.tr = nil
	return out, len(st.ops) >= maxClientPipeline
}

// merges holds the reassembly rule of each verb whose replies the
// router can merge when a line scatters on its row's say-so (Scatter
// verbs; a masked Keyed probe). Custom verbs pick theirs in their route
// function.
var merges = [wire.NumVerbs]mergeFn{
	wire.Search:  (*Router).mergeMasked,
	wire.Stats:   (*Router).mergeFold,
	wire.Engines: (*Router).mergeEngineUnion,
	wire.WAL:     (*Router).mergeWAL,
}

// routes holds the verb-specific sub-grammars: one route function per
// Custom row.
var routes = [wire.NumVerbs]func(rt *Router, st *rconn, line string, req *wire.Request){
	wire.MSearch: (*Router).routeMSearch,
	wire.Create:  (*Router).routeCreate,
	wire.Drop:    (*Router).routeDrop,
	wire.Health:  (*Router).routeHealth,
	wire.Metrics: (*Router).routeMetrics,
	wire.Slowlog: (*Router).routeSlowlog,
	wire.Trace:   (*Router).routeTrace,
}

// route picks the backend(s) for one line and enqueues it: strip the
// annotation, look the verb up, place by the row's class. A line whose
// head does not parse (empty, unknown verb, malformed annotation) goes
// to backend 0 so the backend's own grammar renders the authoritative
// ERR; so does a line too short to name its engine.
func (rt *Router) route(st *rconn, line string) {
	req := &st.req // not a local: the route table's indirect call would move one to the heap
	wire.Parse(req, line)
	if req.Annotated {
		st.tr = nil // the client's annotation stands; open adds no second one
	}
	v := req.Verb
	if v == nil {
		rt.forward(st, line, 0, nil)
		return
	}
	if v.Place == wire.Custom {
		routes[v.ID](rt, st, line, req)
		return
	}
	if v.Engine == 0 { // ENGINES, WAL: nothing to place by
		rt.scatter(st, line, v, merges[v.ID])
		return
	}
	var a [5]string // through one field past the furthest mask position
	args := req.Args
	n := uint8(args.Fill(a[:]))
	if n < v.Engine {
		rt.forward(st, line, 0, v)
		return
	}
	eng := a[v.Engine-1]
	switch v.Place {
	case wire.Keyed:
		switch {
		case n < v.Key: // no key: the engine's home renders the usage ERR
			rt.forward(st, line, rt.ring.OwnerEngine(eng), v)
		case v.Mask == 0 || n < v.Mask:
			rt.forward(st, line, rt.owner(eng, a[v.Key-1]), v)
		case n == v.Mask && merges[v.ID] != nil && !rt.Pinned(eng):
			// A masked probe can match a record on any shard.
			rt.scatter(st, line, v, merges[v.ID])
		default: // masked with no merge rule, pinned, or one field too many
			rt.forward(st, line, rt.ring.OwnerEngine(eng), v)
		}
	case wire.Home:
		rt.forward(st, line, rt.ring.OwnerEngine(eng), v)
	case wire.Scatter:
		switch {
		case n != v.Engine: // the engine is the verb's only argument
			rt.forward(st, line, 0, v)
		case rt.Pinned(eng):
			rt.forward(st, line, rt.ring.OwnerEngine(eng), v)
		default:
			rt.scatter(st, line, v, merges[v.ID])
		}
	}
}

// owner is the backend of one keyed op: the ring owner of (engine, key),
// or the engine's home when it is pinned or the key does not parse (the
// backend will say so; the line just needs a deterministic anchor).
func (rt *Router) owner(eng, key string) int {
	if !rt.Pinned(eng) {
		if v, ok := wire.ParseVec(key); ok {
			return rt.ring.Owner(eng, v)
		}
	}
	return rt.ring.OwnerEngine(eng)
}

// forward enqueues line for one backend and records the pending op.
// Retry eligibility is the row's: v is nil for a line no row claims.
func (rt *Router) forward(st *rconn, line string, backend int, v *wire.Verb) *pendingOp {
	op := st.nextOp()
	op.kind = opForward
	op.backend = backend
	op.idempotent = v != nil && v.Idempotent
	op.calls = append(op.calls, st.send(rt, backend, 1, line))
	return op
}

// open starts a request line in backend b's batch of the current burst
// (noting where, so a half-built MSEARCH can be taken back) and returns
// the batch. A head-sampled request's line is prefixed with
// the wire annotation — "*TID <hex-id>/<span> " — so the backend joins
// its own trace to the id and a later TRACE GET <id>/<span> on that
// backend returns this hop's child trace. The trace id is minted
// lazily, once per router trace. A line the client annotated itself is
// never given a second tag (route clears st.tr for it): the client's
// bytes go out as written, the id they carry names the backend's trace
// (TRACE GET through the router still finds it, by scatter), and the
// router's own trace of that request, sampled or late-built, carries
// no wire id and so no stitched child.
func (st *rconn) open(b int, span uint32) *wire.Batch {
	bt := st.cur[b]
	if bt == nil {
		bt = wire.NewBatch()
		st.cur[b] = bt
	}
	st.marks[b] = len(bt.Req)
	if tr := st.tr; tr != nil {
		if tr.TID == 0 {
			tr.SetWire(trace.NewTraceID(), 0)
		}
		bt.Req = append(bt.Req, "*TID "...)
		bt.Req = strconv.AppendUint(bt.Req, tr.TID, 16)
		bt.Req = append(bt.Req, '/')
		bt.Req = strconv.AppendUint(bt.Req, uint64(span), 10)
		bt.Req = append(bt.Req, ' ')
	}
	return bt
}

// endLine terminates the line open started and returns its call. A
// batch whose bytes pass flushThreshold is submitted right away (same
// lane, so still ahead of whatever this client sends that backend
// next) and a fresh one takes its place.
func (st *rconn) endLine(rt *Router, b int) Call {
	bt := st.cur[b]
	c := Call{bt.EndLine()}
	if len(bt.Req) >= flushThreshold {
		rt.pools[b].submit(bt, st.lane)
		st.cut = append(st.cut, bt)
		st.cur[b] = nil
	}
	return c
}

// send enqueues one whole line for backend b.
func (st *rconn) send(rt *Router, b int, span uint32, line string) Call {
	bt := st.open(b, span)
	bt.Req = append(bt.Req, line...)
	return st.endLine(rt, b)
}

// scatter enqueues line for every backend with a merge rule; v is the
// row a fold merge reads its rules from. A head-sampled scatter tags
// backend b's copy with child span b+1.
func (rt *Router) scatter(st *rconn, line string, v *wire.Verb, merge mergeFn) *pendingOp {
	op := st.nextOp()
	op.kind = opScatter
	op.merge, op.verb = merge, v
	for b := range rt.pools {
		op.calls = append(op.calls, st.send(rt, b, uint32(b+1), line))
	}
	return op
}

// routeMSearch splits the pair list by ring owner and builds one
// MSEARCH per involved backend straight into that backend's batch, each
// behind the client's annotation if the line carried one. Malformed
// lists (odd arity, bad hex) forward whole to backend 0: the server
// validates every key before executing any slot, so nothing runs and
// the ERR is authoritative.
func (rt *Router) routeMSearch(st *rconn, line string, req *wire.Request) {
	sc := req.Args
	n := sc.Count()
	if n == 0 || n%2 != 0 {
		rt.forward(st, line, 0, req.Verb)
		return
	}
	op := st.nextOp()
	op.kind = opMSearch
	for b := range rt.pools {
		st.marks[b] = -1
	}
	for {
		eng, ok := sc.Next()
		if !ok {
			break
		}
		key, _ := sc.Next()
		v, okKey := wire.ParseVec(key)
		if !okKey {
			// Bad hex: the whole line belongs to one backend's parser.
			// Nothing was submitted yet — take the half-built lines back
			// out of the batches, drop the op, and forward whole.
			for b := range rt.pools {
				if st.marks[b] >= 0 {
					st.cur[b].Req = st.cur[b].Req[:st.marks[b]]
				}
			}
			st.ops = st.ops[:len(st.ops)-1]
			rt.forward(st, line, 0, req.Verb)
			return
		}
		var b int
		if rt.Pinned(eng) {
			b = rt.ring.OwnerEngine(eng)
		} else {
			b = rt.ring.Owner(eng, v)
		}
		if st.marks[b] < 0 {
			bt := st.open(b, uint32(b+1))
			bt.Req = append(bt.Req, req.Tag...)
			bt.Req = append(bt.Req, req.Verb.Name...)
		}
		bt := st.cur[b]
		bt.Req = append(bt.Req, ' ')
		bt.Req = append(bt.Req, eng...)
		bt.Req = append(bt.Req, ' ')
		bt.Req = append(bt.Req, key...)
		op.slotBk = append(op.slotBk, b)
	}
	for b := range rt.pools {
		if st.marks[b] < 0 {
			op.calls = append(op.calls, Call{})
		} else {
			op.calls = append(op.calls, st.endLine(rt, b))
		}
	}
}

// routeCreate: CREATE ENGINE ... TYPE exact broadcasts (every backend
// must carry a sharded engine); a typed CREATE forwards to the engine's
// home and pins it there.
func (rt *Router) routeCreate(st *rconn, line string, req *wire.Request) {
	var a [4]string
	if n := req.Args.Fill(a[:]); n < 4 || !wire.EqualFold(a[0], "ENGINE") || !wire.EqualFold(a[2], "TYPE") {
		rt.forward(st, line, 0, req.Verb)
		return
	}
	if wire.EqualFold(a[3], "EXACT") {
		rt.scatter(st, line, req.Verb, (*Router).mergeAllOK)
		return
	}
	// Pin at dispatch, not settle: requests later in this same
	// pipelined burst must already route the new typed engine to
	// its home. Settle rolls the pin back if the CREATE failed. The
	// pin set and the op outlive the line: they keep a clone.
	name := strings.Clone(a[1])
	rt.pin(name, true)
	rt.forward(st, line, rt.ring.OwnerEngine(name), req.Verb).pin = name
}

// routeDrop: a pinned engine's DROP forwards home and unpins on
// success; a sharded engine's broadcasts.
func (rt *Router) routeDrop(st *rconn, line string, req *wire.Request) {
	var a [2]string
	switch n := req.Args.Fill(a[:]); {
	case n < 2 || !wire.EqualFold(a[0], "ENGINE"):
		rt.forward(st, line, 0, req.Verb)
	case rt.Pinned(a[1]):
		rt.forward(st, line, rt.ring.OwnerEngine(a[1]), req.Verb).unpin = strings.Clone(a[1])
	default:
		rt.scatter(st, line, req.Verb, (*Router).mergeAllOK)
	}
}

// routeHealth: the bare roster merges per-engine worst states; HEALTH
// <eng> and HEALTH <eng> SCRUB on a sharded engine fold the shards'
// counters; a pinned engine's forms forward home.
func (rt *Router) routeHealth(st *rconn, line string, req *wire.Request) {
	var a [3]string
	n := req.Args.Fill(a[:])
	switch eng := a[0]; {
	case n == 0:
		rt.scatter(st, line, req.Verb, (*Router).mergeHealthRoster)
	case n > 2:
		rt.forward(st, line, 0, req.Verb) // backend renders the usage ERR
	case rt.Pinned(eng):
		// A scrub reports what it repaired: resubmitted, the second pass
		// would answer for a first whose report was lost.
		rt.forward(st, line, rt.ring.OwnerEngine(eng), req.Verb).idempotent = n == 1
	case n == 1:
		rt.scatter(st, line, req.Verb, (*Router).mergeFold)
	case wire.EqualFold(a[1], "SCRUB"):
		rt.scatter(st, line, req.Verb, (*Router).mergeScrub)
	default:
		rt.forward(st, line, 0, req.Verb)
	}
}

// replyUnavailable is the router's shed line for single-reply
// requests; MSEARCH slots use wire.SlotUnavailable. Only ever sent
// instead of an answer, never alongside a wrong one.
var replyUnavailable = []byte("ERR unavailable")

// Settle is the burst's settle trigger: submit each non-empty batch to
// its lane (one queue operation per backend), walk the ops in request
// order — each waits for its batch, so at most one wake-up per batch —
// reassembling replies into out, run the tracing pass, and recycle the
// batches; the endpoint then flushes out with one write.
func (st *rconn) Settle(out []byte) []byte {
	rt := st.rt
	tFlush := time.Now().UnixNano()
	cur := st.cur[:len(rt.pools)]
	for b, bt := range cur {
		if bt != nil && bt.Lines() > 0 {
			rt.pools[b].submit(bt, st.lane)
		}
	}
	for i := range st.ops {
		op := &st.ops[i]
		op.mark = len(out)
		switch op.kind {
		case opLocal:
			out = append(out, op.local...)
		case opForward:
			out = rt.settleForward(st, out, op)
		case opMSearch:
			out = rt.settleMSearch(st, out, op)
		case opScatter:
			out = rt.settleScatter(out, op)
		}
		out = append(out, '\n')
	}
	rt.observe(st, out, tFlush)
	st.ops = st.ops[:0]
	// Every line's op waited above; these waits only guarantee no batch
	// is refilled while the pool could still be writing to it.
	for _, bt := range cur {
		if bt != nil && bt.Lines() > 0 {
			bt.Wait()
			bt.Reset()
		}
	}
	for _, bt := range st.cut {
		bt.Wait()
		bt.Release()
	}
	st.cut = st.cut[:0]
	return out
}

// settleForward resolves a single-backend call. An idempotent read in
// the failed tail of a batch whose connection died retries on its own,
// one single-line batch per attempt, with backoff; the last attempt
// replaces calls[0] so the tracing pass sees its stamps.
func (rt *Router) settleForward(st *rconn, out []byte, op *pendingOp) []byte {
	c := op.calls[0]
	resp, err := c.Wait()
	for err != nil && op.idempotent && errors.Is(err, ErrBackendDown) && op.retries < rt.retries {
		rt.met.Backend(op.backend).IncRetries()
		time.Sleep(retryBackoff << uint(op.retries))
		op.retries++
		c = rt.pools[op.backend].Submit(c.Line()) // a *TID tag rides in the line
		st.cut = append(st.cut, c.Batch())        // recycled with the burst
		op.calls[0] = c
		resp, err = c.Wait()
	}
	ok := err == nil && wire.Head(wire.View(resp)) == wire.ReplyOK
	if op.pin != "" && !ok {
		rt.pin(op.pin, false) // CREATE failed: roll the speculative pin back
	}
	if op.unpin != "" && ok {
		rt.pin(op.unpin, false) // DROP succeeded: the engine is gone
	}
	if err != nil {
		return append(out, replyUnavailable...)
	}
	return append(out, resp...)
}

// settleMSearch reassembles per-backend MRESULTS into the caller's
// original slot order. One scanner per backend walks its reply left to
// right; the slot plan visits each backend's slots in the order they
// were packed, so a scanner never rewinds. A backend that is down,
// answered anything but MRESULTS, or ran out of slots early (desync)
// leaves its scanner empty: those slots say unavailable, never a
// shifted reply.
func (rt *Router) settleMSearch(st *rconn, out []byte, op *pendingOp) []byte {
	for b, c := range op.calls {
		st.curs[b] = wire.Scanner{}
		if c.Batch() == nil {
			continue
		}
		if resp, err := c.Wait(); err == nil {
			sc := wire.Scan(wire.View(resp))
			if head, _ := sc.Next(); head == wire.ReplyMResults {
				st.curs[b] = sc
			}
		}
	}
	out = append(out, wire.ReplyMResults...)
	for _, b := range op.slotBk {
		out = append(out, ' ')
		if slot, ok := st.curs[b].Next(); ok {
			out = append(out, slot...)
		} else {
			out = append(out, wire.SlotUnavailable...)
		}
	}
	return out
}

// settleScatter resolves a broadcast according to its merge rule.
func (rt *Router) settleScatter(out []byte, op *pendingOp) []byte {
	for _, c := range op.calls {
		c.Wait() //nolint:errcheck // re-read by the merge rule
	}
	return op.merge(rt, out, op)
}

// observe is settle's tracing pass, run once every reply of the burst
// is in the out buffer. A head-sampled op carries the trace its forwards
// were tagged with. Any other op is judged now: past the slowlog
// threshold, its trace is built after the fact — identity re-parsed
// from the request bytes its batch still owns, spans from the stamps,
// result from the reply — and admitted, with the backend index but no
// wire id, hence no stitched child; otherwise nothing was allocated,
// nothing tagged, and no backend retained anything on its behalf.
// tFlush is the settle trigger's stamp.
func (rt *Router) observe(st *rconn, out []byte, tFlush int64) {
	now := time.Now().UnixNano()
	for i := range st.ops {
		op := &st.ops[i]
		d := time.Duration(now - op.t0)
		tr := op.tr
		if tr == nil {
			if !rt.trc.SlowAdmit(d) {
				continue
			}
			tr = rt.trc.BeginAt(time.Unix(0, op.t0), false)
		}
		// The op was routed by the time the next one was dispatched (or
		// the burst flushed); its reply ends where the next one starts.
		routed, end := tFlush, len(out)
		if i+1 < len(st.ops) {
			routed, end = st.ops[i+1].t0, st.ops[i+1].mark
		}
		rt.record(tr, op, routed)
		tr.SetResult(wire.Head(wire.View(out[op.mark : end-1])))
		if slow := rt.trc.Observe(tr, d); slow && rt.log != nil {
			rt.log.Warn("slow proxied request",
				"id", tr.ID,
				"cmd", tr.Cmd,
				"engine", tr.Engine,
				"key", tr.Key,
				"us", tr.Dur.Microseconds(),
				"result", tr.Result)
		}
	}
}

// record fills a trace from a settled op: the command identity
// (wire.Request.Identity, what the backend's own trace records), the
// route span (dispatch until routed — parse plus ring lookup), then per
// involved backend the breaker outcome, retries, and the call's hops.
func (rt *Router) record(tr *trace.Trace, op *pendingOp, routed int64) {
	line := op.req
	for _, c := range op.calls {
		if c.Batch() != nil {
			line = c.Line()
			break
		}
	}
	// Views of batch bytes recycled long before the trace is: the
	// collector clones them on admission, before settle moves on.
	var req wire.Request
	wire.Parse(&req, wire.View(line))
	tr.Request(req.Identity())
	tr.Add(trace.Event{Kind: trace.KindRoute, Dur: time.Duration(routed - op.t0)})
	hop := func(i int) (backend int, span uint32) {
		if op.kind == opForward {
			return op.backend, 1
		}
		return i, uint32(i + 1)
	}
	for i, c := range op.calls {
		if op.kind != opMSearch {
			b, _ := hop(i)
			_, err := c.Wait()
			tr.Add(trace.Event{Kind: trace.KindBreaker, Bucket: uint32(b),
				Hit: errors.Is(err, ErrBackendUnavailable)})
		}
	}
	for n := 1; n <= op.retries; n++ {
		tr.Add(trace.Event{Kind: trace.KindRetry, Bucket: uint32(op.backend), Matches: int32(n)})
	}
	for i, c := range op.calls {
		if c.Batch() != nil {
			b, span := hop(i)
			queued := routed
			if op.retries > 0 {
				queued = c.Batch().TSubmit // a retry queues from its own submission
			}
			recordCall(tr, c, b, span, op.t0, queued)
		}
	}
}

// recordCall turns one call's batch stamps into router hops: queue_wait
// (queued -> the pool writer picked its batch up, i.e. time in the
// client's batch plus the lane queue), backend_rtt (write -> batch
// complete; Span is the child span id a stitcher resolves via TRACE
// GET, 0 when nothing was tagged) and the size of the coalesced write.
// Other goroutines' stamps are clamped so the spans chain forward. A
// batch shed before reaching a connection has no write stamp: all of
// its time was queueing.
func recordCall(tr *trace.Trace, c Call, backend int, span uint32, t0, queued int64) {
	bt := c.Batch()
	if tr.TID == 0 {
		span = 0
	}
	queue := trace.Event{Kind: trace.KindQueue, Bucket: uint32(backend), Offset: time.Duration(queued - t0)}
	if bt.TWrite == 0 {
		queue.Dur = time.Duration(max(bt.TDone, queued) - queued)
		tr.Add(queue)
		return
	}
	wrote := max(bt.TWrite, queued)
	queue.Dur = time.Duration(wrote - queued)
	tr.Add(queue)
	tr.Add(trace.Event{Kind: trace.KindRTT, Bucket: uint32(backend), Span: span,
		Offset: time.Duration(wrote - t0), Dur: time.Duration(max(bt.TDone, wrote) - wrote)})
	tr.Add(trace.Event{Kind: trace.KindBurst, Bucket: uint32(backend), Matches: bt.Burst})
}

// mergeAllOK: every backend must say OK; otherwise the first non-OK
// reply (in address order) wins, and a transport failure sheds. Used
// for broadcast CREATE/DROP of sharded engines, where partial
// application is surfaced, not hidden. On success, settle-side pin
// bookkeeping has already been handled by the forward path (pinned
// creates are not broadcast).
func (rt *Router) mergeAllOK(out []byte, op *pendingOp) []byte {
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		if wire.Head(wire.View(resp)) != wire.ReplyOK {
			return append(out, resp...)
		}
	}
	return append(out, wire.ReplyOK...)
}

// mergeMasked: a masked probe can match on any shard — first HIT in
// address order wins; a backend that could not rule the key out (or
// could not be asked) forces the explicit error forms.
func (rt *Router) mergeMasked(out []byte, op *pendingOp) []byte {
	sawDown, sawMissErr, sawMiss := false, false, false
	var firstOther []byte
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			sawDown = true
			continue
		}
		switch wire.Head(wire.View(resp)) {
		case wire.ReplyHit:
			return append(out, resp...)
		case wire.ReplyMissErr:
			sawMissErr = true
		case wire.ReplyMiss:
			sawMiss = true
		default:
			if firstOther == nil {
				firstOther = resp
			}
		}
	}
	switch {
	case sawDown:
		return append(out, replyUnavailable...)
	case sawMissErr:
		return append(out, wire.ReplyMissErr...)
	case sawMiss:
		return append(out, wire.ReplyMiss...)
	case firstOther != nil:
		return append(out, firstOther...)
	}
	return append(out, wire.ReplyMiss...)
}

// mergeEngineUnion: the cluster roster is the union of backend
// rosters, first-seen order scanning backends by address.
func (rt *Router) mergeEngineUnion(out []byte, op *pendingOp) []byte {
	seen := make(map[string]struct{}, 8)
	mark := len(out)
	out = append(out, op.verb.Name...)
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out[:mark], replyUnavailable...)
		}
		sc := wire.Scan(wire.View(resp))
		if head, _ := sc.Next(); head != op.verb.Name {
			continue
		}
		for name, ok := sc.Next(); ok; name, ok = sc.Next() {
			if _, dup := seen[name]; dup {
				continue
			}
			seen[name] = struct{}{}
			out = append(out, ' ')
			out = append(out, name...)
		}
	}
	return out
}

// healthRank orders the engine health vocabulary worst-last.
func healthRank(state string) int {
	switch {
	case wire.EqualFold(state, "failed"):
		return 2
	case wire.EqualFold(state, "degraded"):
		return 1
	default:
		return 0
	}
}

var healthNames = [...]string{"healthy", "degraded", "failed"}

// mergeHealthRoster: per engine name, the worst state reported by any
// backend (a sharded engine is only as available as its sickest
// shard), names in first-seen order scanning backends by address — so
// the merged roster is deterministic regardless of how the backend
// list was spelled.
func (rt *Router) mergeHealthRoster(out []byte, op *pendingOp) []byte {
	type ent struct {
		name string
		rank int
	}
	var ents []ent
	idx := make(map[string]int, 8)
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := wire.Scan(wire.View(resp))
		if head, _ := sc.Next(); head != op.verb.Name {
			continue
		}
		for name, val, ok := sc.NextKV(); ok; name, val, ok = sc.NextKV() {
			r := healthRank(val)
			if i, seen := idx[name]; seen {
				ents[i].rank = max(ents[i].rank, r)
			} else {
				idx[name] = len(ents)
				ents = append(ents, ent{name: name, rank: r})
			}
		}
	}
	out = append(out, op.verb.Name...)
	for _, e := range ents {
		out = append(out, ' ')
		out = append(out, e.name...)
		out = append(out, '=')
		out = append(out, healthNames[e.rank]...)
	}
	return out
}
