package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"caram/internal/metrics"
	"caram/internal/server"
	"caram/internal/trace"
)

// Fleet-wide observability: the router-side halves of the SLOWLOG,
// METRICS, and TRACE wire commands, plus the /debug/traces stitcher.
//
// Without a collector (RouterConfig.Tracing nil) the router keeps its
// pre-tracing answers byte-exactly: METRICS reports the router's own
// totals and SLOWLOG explains that slowlogs are per-backend state.
// With a collector attached the same commands become cluster views:
// scatter to every backend, parse the single-line replies with the
// zero-dependency token scanner, and merge — counters sum, latency
// histograms add bucket-wise, slowlog entries k-way merge by latency
// with a node= provenance tag. Backends are always visited in address
// order (Router.order) so merged output is deterministic.

// maxRouterSlowlogGet mirrors the server-side bound on SLOWLOG GET n.
const maxRouterSlowlogGet = 1 << 20

// dispatchMetrics routes the METRICS command. Pinned engines forward
// home as before; everything else depends on whether tracing is on.
func (rt *Router) dispatchMetrics(st *rconn, line []byte) {
	sc := bscan{b: line}
	sc.next() // METRICS
	eng, hasEng := sc.next()
	if !hasEng {
		if rt.trc == nil {
			op := st.nextOp()
			op.kind = opLocal
			ops, errs := rt.met.Totals()
			if rt.met != nil {
				// Lines this burst has batched but not yet submitted are
				// ops already: the count is the one a line-at-a-time
				// router would report here.
				for _, bt := range st.cur[:len(rt.pools)] {
					if bt != nil {
						ops += uint64(bt.n)
					}
				}
			}
			op.local = append(op.local, "METRICS backends="...)
			op.local = strconv.AppendInt(op.local, int64(len(rt.pools)), 10)
			op.local = append(op.local, " ops="...)
			op.local = strconv.AppendUint(op.local, ops, 10)
			op.local = append(op.local, " errors="...)
			op.local = strconv.AppendUint(op.local, errs, 10)
			return
		}
		rt.scatter(st, line, (*Router).mergeMetricsAll)
		return
	}
	if rt.Pinned(string(eng)) {
		rt.forward(st, line, rt.ring.OwnerEngine(string(eng)), true)
		return
	}
	if rt.trc == nil {
		op := st.nextOp()
		op.kind = opLocal
		op.local = append(op.local, "ERR metrics: engine "...)
		op.local = strconv.AppendQuote(op.local, string(eng))
		op.local = append(op.local, " is key-sharded; scrape the router /metrics or query backends"...)
		return
	}
	sub, hasSub := sc.next()
	opName, hasOp := sc.next()
	_, extra := sc.next()
	switch {
	case !hasSub:
		rt.scatter(st, line, (*Router).mergeMetricsEngine)
	case hasOp && !extra && eqFold(sub, "LATENCY"):
		// Quantiles do not merge; raw bucket counts do. Ask the fleet
		// for the machine HIST form and re-derive quantiles from the
		// summed histogram.
		b := append(st.cmdb[:0], "METRICS "...)
		b = append(b, eng...)
		b = append(b, " HIST "...)
		b = append(b, opName...)
		st.cmdb = b
		rt.scatter(st, b, (*Router).mergeHistQuantiles)
	case hasOp && !extra && eqFold(sub, "HIST"):
		rt.scatter(st, line, (*Router).mergeHistSum)
	default:
		rt.forward(st, line, 0, false) // backend renders the usage ERR
	}
}

// dispatchSlowlog routes the SLOWLOG command; sc is positioned after
// the command token.
func (rt *Router) dispatchSlowlog(st *rconn, line []byte, sc bscan) {
	if rt.trc == nil {
		op := st.nextOp()
		op.kind = opLocal
		op.local = append(op.local, "ERR slowlog: per-backend state; query backends directly"...)
		return
	}
	sub, hasSub := sc.next()
	switch {
	case !hasSub:
		rt.forward(st, line, 0, false) // backend renders the usage ERR
	case eqFold(sub, "LEN"):
		rt.scatter(st, line, (*Router).mergeSlowlogLen)
	case eqFold(sub, "RESET"):
		rt.trc.Slow().Reset()
		rt.scatter(st, line, (*Router).mergeAllOK)
	case eqFold(sub, "GET"):
		n := -1 // all retained
		if arg, has := sc.next(); has {
			if v, ok := parseDigits(arg); ok {
				n = int(v)
			}
			// Out-of-grammar args still scatter: every backend rejects
			// them identically and the merge propagates that ERR.
		}
		op := rt.scatter(st, line, (*Router).mergeSlowlogGet)
		op.backend = n // merge-side cap (opScatter leaves backend unused)
	default:
		rt.forward(st, line, 0, false)
	}
}

// dispatchTrace routes TRACE GET <hex-id>[/<span>]: answered locally
// when the id is retained by the router's own collector, else asked of
// every backend (the id may name a child span only a backend holds).
func (rt *Router) dispatchTrace(st *rconn, line []byte, sc bscan) {
	sub, okSub := sc.next()
	arg, okArg := sc.next()
	_, extra := sc.next()
	if !okSub || !okArg || extra || !eqFold(sub, "GET") {
		rt.forward(st, line, 0, false) // backend renders the usage ERR
		return
	}
	if tid, span, ok := parseWireIDBytes(arg); ok && rt.trc != nil {
		if t := rt.trc.Find(tid, span); t != nil {
			op := st.nextOp()
			op.kind = opLocal
			op.local = append(op.local, "TRACE "...)
			op.local = t.AppendJSON(op.local, 0)
			op.req = append(op.req, line...)
			return
		}
	}
	rt.scatter(st, line, (*Router).mergeTrace)
}

// parseWireIDBytes parses "<hex-id>[/<decimal-span>]".
func parseWireIDBytes(b []byte) (tid uint64, span uint32, ok bool) {
	idb := b
	if i := bytes.IndexByte(b, '/'); i >= 0 {
		v, okSpan := parseDigits(b[i+1:])
		if !okSpan || v > 1<<31 {
			return 0, 0, false
		}
		span = uint32(v)
		idb = b[:i]
	}
	tid, ok = server.ParseHex64(idb)
	return tid, span, ok && tid != 0
}

// parseDigits is a strict non-negative decimal parse (unlike the
// lenient parseInt), bounded so a hostile arg cannot overflow.
func parseDigits(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v > maxRouterSlowlogGet {
			return 0, false
		}
	}
	return v, true
}

// mergeTrace: first backend (in address order) holding the trace wins;
// a fleet-wide miss propagates the backend's own notfound ERR.
func (rt *Router) mergeTrace(out []byte, op *pendingOp) []byte {
	var firstErr []byte
	down := false
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			down = true
			continue
		}
		if hasPrefix(resp, "TRACE ") {
			return append(out, resp...)
		}
		if firstErr == nil {
			firstErr = resp
		}
	}
	switch {
	case firstErr != nil:
		return append(out, firstErr...)
	case down:
		return append(out, replyUnavailable...)
	}
	return append(out, "ERR trace: notfound"...)
}

// mergeSlowlogLen: fleet slowlog depth — backend lengths plus the
// router's own ring.
func (rt *Router) mergeSlowlogLen(out []byte, op *pendingOp) []byte {
	total := int64(rt.trc.Slow().Len())
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "SLOWLOG") {
			return append(out, resp...) // first bad reply in address order
		}
		if pair, ok := sc.next(); ok {
			if k, v, okKV := splitKV(pair); okKV && eqFold(k, "len") {
				total += parseInt(v)
			}
		}
	}
	out = append(out, "SLOWLOG len="...)
	return strconv.AppendInt(out, total, 10)
}

// slowEnt is one slowlog entry in flight through the k-way merge.
type slowEnt struct {
	us   int64
	node int // backend index; -1 = the router itself
	raw  []byte
}

// mergeSlowlogGet: scatter/gathered SLOWLOG GET — every backend's
// entries plus the router's own, k-way merged newest-slowest first and
// tagged with their source node.
func (rt *Router) mergeSlowlogGet(out []byte, op *pendingOp) []byte {
	max := op.backend // -1 all, 0 none, k cap
	var ents []slowEnt
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		if tok, _ := firstToken(resp); !eqFold(tok, "SLOWLOG") {
			return append(out, resp...)
		}
		ents = appendSlowEntries(ents, resp, bi)
	}
	// The router's own retained slow requests ride along as
	// node=router: queue-wait and RTT live here, not on any backend.
	if max != 0 {
		snapMax := max
		if snapMax < 0 {
			snapMax = 0 // Snapshot: 0 = all retained
		}
		for _, t := range rt.trc.Slow().Snapshot(nil, snapMax) {
			ents = append(ents, slowEnt{us: t.Dur.Microseconds(), node: -1, raw: renderSlowEntry(t)})
		}
	}
	// Slowest first; the stable sort keeps address order inside ties.
	sort.SliceStable(ents, func(a, b int) bool { return ents[a].us > ents[b].us })
	if max >= 0 && len(ents) > max {
		ents = ents[:max]
	}
	out = append(out, "SLOWLOG n="...)
	out = strconv.AppendInt(out, int64(len(ents)), 10)
	for _, e := range ents {
		out = append(out, ' ')
		out = append(out, e.raw...)
		out = append(out, " node="...)
		if e.node < 0 {
			out = append(out, "router"...)
		} else {
			out = append(out, rt.ring.Label(e.node)...)
		}
	}
	return out
}

// appendSlowEntries parses one backend's SLOWLOG GET reply into merge
// entries. The entry grammar is fixed (the backend is our own server),
// so the parse expects exactly the seven k=v fields in order; a
// truncated or desynced tail drops the partial entry rather than
// inventing one.
func appendSlowEntries(ents []slowEnt, resp []byte, bi int) []slowEnt {
	fields := [...]string{"us=", "cmd=", "engine=", "key=", "result=", "rows="}
	sc := bscan{b: resp}
	sc.next() // SLOWLOG
	sc.next() // n=N
	for {
		tok, ok := sc.next()
		if !ok || !hasPrefix(tok, "id=") {
			return ents
		}
		raw := make([]byte, 0, 96)
		raw = append(raw, tok...)
		var us int64
		for _, want := range fields {
			t, okF := sc.next()
			if !okF || !hasPrefix(t, want) {
				return ents
			}
			if want == "us=" {
				us = parseInt(t[len(want):])
			}
			raw = append(raw, ' ')
			raw = append(raw, t...)
		}
		ents = append(ents, slowEnt{us: us, node: bi, raw: raw})
	}
}

// renderSlowEntry prints a router trace in the server's slowlog entry
// grammar, so merged output is shape-uniform across nodes.
func renderSlowEntry(t *trace.Trace) []byte {
	raw := make([]byte, 0, 96)
	raw = append(raw, "id="...)
	raw = strconv.AppendUint(raw, t.ID, 10)
	raw = append(raw, " us="...)
	raw = strconv.AppendInt(raw, t.Dur.Microseconds(), 10)
	raw = append(raw, " cmd="...)
	raw = append(raw, t.Cmd...)
	raw = append(raw, " engine="...)
	raw = append(raw, t.Engine...)
	raw = append(raw, " key="...)
	raw = append(raw, t.Key...)
	raw = append(raw, " result="...)
	raw = append(raw, t.Result...)
	raw = append(raw, " rows="...)
	return strconv.AppendInt(raw, int64(t.Rows), 10)
}

// mergeMetricsAll: fleet totals — backend registry counters summed,
// with the router's own forwarding totals alongside.
func (rt *Router) mergeMetricsAll(out []byte, op *pendingOp) []byte {
	var ops, errs, unknown int64
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "METRICS") {
			return append(out, resp...)
		}
		for k, v, ok := sc.nextKV(); ok; k, v, ok = sc.nextKV() {
			switch {
			case eqFold(k, "ops"):
				ops += parseInt(v)
			case eqFold(k, "errors"):
				errs += parseInt(v)
			case eqFold(k, "unknown"):
				unknown += parseInt(v)
			}
		}
	}
	rops, rerrs := rt.met.Totals()
	out = append(out, "METRICS backends="...)
	out = strconv.AppendInt(out, int64(len(rt.pools)), 10)
	out = append(out, " ops="...)
	out = strconv.AppendInt(out, ops, 10)
	out = append(out, " errors="...)
	out = strconv.AppendInt(out, errs, 10)
	out = append(out, " unknown="...)
	out = strconv.AppendInt(out, unknown, 10)
	out = append(out, " router_ops="...)
	out = strconv.AppendUint(out, rops, 10)
	out = append(out, " router_errors="...)
	return strconv.AppendUint(out, rerrs, 10)
}

// mergeMetricsEngine: METRICS <eng> across shards. Counters sum; load
// is the mean shard load factor; amal is the lookup-weighted mean,
// exactly the STATS aggregation rules. Field order follows the first
// shard's reply, so the merged line has the server's own shape.
func (rt *Router) mergeMetricsEngine(out []byte, op *pendingOp) []byte {
	var (
		engine         string
		keys           []string
		seen           = make(map[string]bool, 24)
		sums           = make(map[string]int64, 24)
		loadSum        float64
		amalW, lookups float64
		shards         int
	)
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "METRICS") {
			return append(out, resp...)
		}
		shards++
		var sh, sm int64
		var samal float64
		for k, v, ok := sc.nextKV(); ok; k, v, ok = sc.nextKV() {
			ks := string(k)
			switch ks {
			case "engine":
				engine = string(v)
				continue // printed first, not part of the key order
			case "load":
				loadSum += parseFloat(v)
			case "amal":
				samal = parseFloat(v)
			default:
				n := parseInt(v)
				sums[ks] += n
				if ks == "hits" {
					sh = n
				} else if ks == "misses" {
					sm = n
				}
			}
			if !seen[ks] {
				seen[ks] = true
				keys = append(keys, ks)
			}
		}
		l := float64(sh + sm)
		amalW += samal * l
		lookups += l
	}
	if shards == 0 {
		return append(out, replyUnavailable...)
	}
	out = append(out, "METRICS engine="...)
	out = append(out, engine...)
	for _, k := range keys {
		out = append(out, ' ')
		out = append(out, k...)
		out = append(out, '=')
		switch k {
		case "load":
			out = strconv.AppendFloat(out, loadSum/float64(shards), 'f', 3, 64)
		case "amal":
			// NaN with zero lookups, like a fresh engine's.
			out = strconv.AppendFloat(out, amalW/lookups, 'f', 3, 64)
		default:
			out = strconv.AppendInt(out, sums[k], 10)
		}
	}
	return out
}

// sumHist gathers the fleet histogram behind both HIST merges — the
// backends' power-of-two bucket counts add index-wise (shards share the
// bucket edges by construction), sums and error counts add, N is
// recomputed from the merged counts — and appends the head both
// renderings share. ok=false means out already holds the whole reply:
// unavailable, or the first backend line that was not a histogram.
func (rt *Router) sumHist(out []byte, op *pendingOp) (_ []byte, fleet metrics.HistSnapshot, ok bool) {
	var engine, opName []byte
	var errs int64
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...), fleet, false
		}
		sc := bscan{b: resp}
		if tok, ok := sc.next(); !ok || !eqFold(tok, "METRICS") {
			return append(out, resp...), fleet, false
		}
		for k, v, ok := sc.nextKV(); ok; k, v, ok = sc.nextKV() {
			switch {
			case eqFold(k, "engine"):
				engine = v
			case eqFold(k, "op"):
				opName = v
			case eqFold(k, "err"):
				errs += parseInt(v)
			case eqFold(k, "sum_ns"):
				fleet.SumNs += parseInt(v)
			case eqFold(k, "buckets"):
				i, idx := 0, 0
				for i < len(v) && idx < len(fleet.Counts) {
					j := i
					for j < len(v) && v[j] != ',' {
						j++
					}
					c := uint64(parseInt(v[i:j]))
					fleet.Counts[idx] += c
					fleet.N += c
					idx++
					i = j + 1
				}
			}
		}
	}
	out = append(out, "METRICS engine="...)
	out = append(out, engine...)
	out = append(out, " op="...)
	out = append(out, opName...)
	out = append(out, " n="...)
	out = strconv.AppendUint(out, fleet.N, 10)
	out = append(out, " err="...)
	return strconv.AppendInt(out, errs, 10), fleet, true
}

// mergeHistQuantiles renders the fleet histogram in the server's
// LATENCY quantile shape.
func (rt *Router) mergeHistQuantiles(out []byte, op *pendingOp) []byte {
	out, fleet, ok := rt.sumHist(out, op)
	if !ok {
		return out
	}
	qs := fleet.Quantiles(0.5, 0.9, 0.99, 1)
	out = append(out, " mean_us="...)
	out = strconv.AppendFloat(out, fleet.MeanNs()/1e3, 'f', 2, 64)
	for i, label := range [...]string{" p50_us=", " p90_us=", " p99_us=", " max_us="} {
		out = append(out, label...)
		out = strconv.AppendFloat(out, float64(qs[i])/1e3, 'f', 2, 64)
	}
	return out
}

// mergeHistSum renders the fleet histogram in the server's raw HIST
// shape (machine-readable; a parent tier could merge it again).
func (rt *Router) mergeHistSum(out []byte, op *pendingOp) []byte {
	out, fleet, ok := rt.sumHist(out, op)
	if !ok {
		return out
	}
	out = append(out, " sum_ns="...)
	out = strconv.AppendInt(out, fleet.SumNs, 10)
	out = append(out, " buckets="...)
	for i, c := range fleet.Counts {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendUint(out, c, 10)
	}
	return out
}

// --- /debug/traces stitching -------------------------------------------

// stitchChild is one backend hop's child trace, fetched lazily over
// the wire via TRACE GET <id>/<span>.
type stitchChild struct {
	Backend string          `json:"backend"`
	Span    uint32          `json:"span"`
	Trace   json.RawMessage `json:"trace,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// stitchEntry is one retained router trace with its children: router
// spans (queue wait, backend RTT, retries, breaker state) and backend
// spans (lock wait, probe chain, §3.4 expected-rows) side by side.
type stitchEntry struct {
	Router   json.RawMessage `json:"router"`
	Children []stitchChild   `json:"children,omitempty"`
}

type stitchJSON struct {
	Seen    uint64        `json:"seen"`
	Slowlog []stitchEntry `json:"slowlog"`
	Tagged  []stitchEntry `json:"tagged"`
	Sampled []stitchEntry `json:"sampled"`
}

// TraceHandler serves the router's /debug/traces: the collector's
// retained traces with cross-node stitching. For every backend_rtt hop
// of a retained trace, the handler fetches that backend's child trace
// (TRACE GET <id>/<span>) and embeds it, so one JSON document shows
// router queue wait next to backend lock wait and probe chains. Child
// fetches are per-request wire calls: lazy, so retention stays cheap
// and the child may legitimately be gone (ring wraparound) by the time
// someone looks.
func (rt *Router) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if rt.trc == nil {
			_, _ = w.Write([]byte(`{"disabled":true}` + "\n"))
			return
		}
		max := 32
		if q := req.URL.Query().Get("n"); q != "" {
			if v, ok := parseDigits([]byte(q)); ok && v > 0 {
				max = int(v)
			}
		}
		v := stitchJSON{
			Seen:    rt.trc.Seen(),
			Slowlog: rt.stitchRing(rt.trc.Slow(), max),
			Tagged:  rt.stitchRing(rt.trc.Tagged(), max),
			Sampled: rt.stitchRing(rt.trc.Sampled(), max),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
}

func (rt *Router) stitchRing(r *trace.Ring, max int) []stitchEntry {
	out := []stitchEntry{}
	for _, t := range r.Snapshot(nil, max) {
		e := stitchEntry{Router: json.RawMessage(t.AppendJSON(nil, 0))}
		if t.TID != 0 {
			for _, ev := range t.Events {
				if ev.Kind == trace.KindRTT {
					e.Children = append(e.Children, rt.fetchChild(t.TID, int(ev.Bucket), ev.Span))
				}
			}
		}
		out = append(out, e)
	}
	return out
}

func (rt *Router) fetchChild(tid uint64, backend int, span uint32) stitchChild {
	ch := stitchChild{Span: span}
	if backend < 0 || backend >= len(rt.pools) {
		ch.Backend = "?"
		ch.Error = "bad backend index"
		return ch
	}
	ch.Backend = rt.ring.Label(backend)
	req := make([]byte, 0, 48)
	req = append(req, "TRACE GET "...)
	req = strconv.AppendUint(req, tid, 16)
	req = append(req, '/')
	req = strconv.AppendUint(req, uint64(span), 10)
	c := rt.pools[backend].Submit(req)
	resp, err := c.Wait()
	switch {
	case err != nil:
		ch.Error = "unavailable"
	case hasPrefix(resp, "TRACE "):
		ch.Trace = json.RawMessage(append([]byte(nil), resp[len("TRACE "):]...))
	default:
		ch.Error = string(resp)
	}
	c.Release()
	return ch
}
