package cluster

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"

	"caram/internal/metrics"
	"caram/internal/trace"
	"caram/internal/wire"
)

// Fleet-wide observability: the router-side halves of the SLOWLOG,
// METRICS, and TRACE wire commands, plus the backend child fetch behind
// the router's /debug/traces.
//
// Each command is a cluster view: scatter to every backend, parse the
// single-line replies with the zero-dependency token scanner, and merge
// — counters sum, latency histograms add bucket-wise, slowlog entries
// k-way merge by latency with a node= provenance tag — with the
// router's own registry and collector folded in. Backends are always
// visited in address order (Router.order) so merged output is
// deterministic.

// routeMetrics routes the METRICS command: a pinned engine's forms
// forward home, everything else scatters and merges.
func (rt *Router) routeMetrics(st *rconn, line string, req *wire.Request) {
	var a [4]string
	n := req.Args.Fill(a[:])
	eng, sub, opName := a[0], a[1], a[2]
	switch {
	case n == 0:
		rt.scatter(st, line, req.Verb, (*Router).mergeMetricsAll)
	case rt.Pinned(eng):
		rt.forward(st, line, rt.ring.OwnerEngine(eng), req.Verb)
	case n == 1:
		rt.scatter(st, line, req.Verb, (*Router).mergeFold)
	case n == 3 && wire.EqualFold(sub, "LATENCY"):
		// Quantiles do not merge; raw bucket counts do. Ask the fleet
		// for the machine HIST form and re-derive quantiles from the
		// summed histogram.
		b := append(st.cmdb[:0], "METRICS "...)
		b = append(b, eng...)
		b = append(b, " HIST "...)
		b = append(b, opName...)
		st.cmdb = b
		rt.scatter(st, wire.View(b), req.Verb, (*Router).mergeHistQuantiles)
	case n == 3 && wire.EqualFold(sub, "HIST"):
		rt.scatter(st, line, req.Verb, (*Router).mergeHistSum)
	default:
		rt.forward(st, line, 0, req.Verb) // backend renders the usage ERR
	}
}

// routeSlowlog routes the SLOWLOG command: the fleet's slowlogs and the
// router's own, as one.
func (rt *Router) routeSlowlog(st *rconn, line string, req *wire.Request) {
	sub, _ := req.Args.Next()
	switch {
	case wire.EqualFold(sub, "LEN"):
		rt.scatter(st, line, req.Verb, (*Router).mergeSlowlogLen)
	case wire.EqualFold(sub, "RESET"):
		rt.trc.Slow().Reset()
		rt.scatter(st, line, req.Verb, (*Router).mergeAllOK)
	case wire.EqualFold(sub, "GET"):
		n := -1 // all retained
		if arg, has := req.Args.Next(); has {
			if v, err := strconv.Atoi(arg); err == nil && v >= 0 && v <= wire.MaxSlowlogGet {
				n = v
			}
			// Out-of-grammar args still scatter: every backend rejects
			// them identically and the merge propagates that ERR.
		}
		op := rt.scatter(st, line, req.Verb, (*Router).mergeSlowlogGet)
		op.backend = n // merge-side cap (opScatter leaves backend unused)
	default:
		rt.forward(st, line, 0, req.Verb) // backend renders the usage ERR
	}
}

// routeTrace routes TRACE GET <hex-id>[/<span>]: answered locally
// when the id is retained by the router's own collector, else asked of
// every backend (the id may name a child span only a backend holds).
func (rt *Router) routeTrace(st *rconn, line string, req *wire.Request) {
	var a [3]string
	if n := req.Args.Fill(a[:]); n != 2 || !wire.EqualFold(a[0], "GET") {
		rt.forward(st, line, 0, req.Verb) // backend renders the usage ERR
		return
	}
	if tid, span, ok := wire.ParseWireID(a[1]); ok {
		if t := rt.trc.Find(tid, span); t != nil {
			op := st.nextOp()
			op.kind = opLocal
			op.local = append(op.local, "TRACE "...)
			op.local = t.AppendJSON(op.local, 0)
			op.req = append(op.req, line...)
			return
		}
	}
	rt.scatter(st, line, req.Verb, (*Router).mergeTrace)
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
		if wire.Head(wire.View(resp)) == op.verb.Name {
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
	self := strconv.AppendInt([]byte("SLOWLOG len="), int64(rt.trc.Slow().Len()), 10)
	return rt.fold(out, op, op.verb.Name, "", wire.View(self))
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
		if wire.Head(wire.View(resp)) != op.verb.Name {
			return append(out, resp...)
		}
		ents = appendSlowEntries(ents, wire.View(resp), bi)
	}
	// The router's own retained slow requests ride along as
	// node=router: queue-wait and RTT live here, not on any backend.
	if max != 0 {
		snapMax := max
		if snapMax < 0 {
			snapMax = 0 // Snapshot: 0 = all retained
		}
		for _, t := range rt.trc.Slow().Snapshot(nil, snapMax) {
			ents = append(ents, slowEnt{us: t.Dur.Microseconds(), node: -1, raw: t.AppendSlowlog(nil)})
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
func appendSlowEntries(ents []slowEnt, resp string, bi int) []slowEnt {
	fields := [...]string{"us=", "cmd=", "engine=", "key=", "result=", "rows="}
	sc := wire.Scan(resp)
	sc.Next() // SLOWLOG
	sc.Next() // n=N
	for {
		tok, ok := sc.Next()
		if !ok || !strings.HasPrefix(tok, "id=") {
			return ents
		}
		raw := make([]byte, 0, 96)
		raw = append(raw, tok...)
		var us int64
		for _, want := range fields {
			t, okF := sc.Next()
			if !okF || !strings.HasPrefix(t, want) {
				return ents
			}
			if want == "us=" {
				us = atoi(t[len(want):])
			}
			raw = append(raw, ' ')
			raw = append(raw, t...)
		}
		ents = append(ents, slowEnt{us: us, node: bi, raw: raw})
	}
}

// mergeMetricsAll: fleet totals — backend registry counters summed,
// with the router's own forwarding totals alongside.
func (rt *Router) mergeMetricsAll(out []byte, op *pendingOp) []byte {
	rops, rerrs := rt.met.Totals()
	self := strconv.AppendUint([]byte("METRICS router_ops="), rops, 10)
	self = strconv.AppendUint(append(self, " router_errors="...), rerrs, 10)
	return rt.fold(out, op, op.verb.Name, "backends", wire.View(self))
}

// sumHist gathers the fleet histogram behind both HIST merges — the
// backends' power-of-two bucket counts add index-wise (shards share the
// bucket edges by construction), sums and error counts add, N is
// recomputed from the merged counts — and appends the head both
// renderings share. ok=false means out already holds the whole reply:
// unavailable, or the first backend line that was not a histogram.
func (rt *Router) sumHist(out []byte, op *pendingOp) (_ []byte, fleet metrics.HistSnapshot, ok bool) {
	var engine, opName string
	var errs int64
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...), fleet, false
		}
		sc := wire.Scan(wire.View(resp))
		if head, _ := sc.Next(); head != op.verb.Name {
			return append(out, resp...), fleet, false
		}
		for k, v, ok := sc.NextKV(); ok; k, v, ok = sc.NextKV() {
			switch k {
			case "engine":
				engine = v
			case "op":
				opName = v
			case "err":
				errs += atoi(v)
			case "sum_ns":
				fleet.SumNs += atoi(v)
			case "buckets":
				for idx := 0; v != "" && idx < len(fleet.Counts); idx++ {
					var cell string
					cell, v, _ = strings.Cut(v, ",")
					c := uint64(atoi(cell))
					fleet.Counts[idx] += c
					fleet.N += c
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
	return fleet.AppendQuantiles(out)
}

// mergeHistSum renders the fleet histogram in the server's raw HIST
// shape (machine-readable; a parent tier could merge it again).
func (rt *Router) mergeHistSum(out []byte, op *pendingOp) []byte {
	out, fleet, ok := rt.sumHist(out, op)
	if !ok {
		return out
	}
	return fleet.AppendBuckets(out)
}

// FetchChild is the router's trace.FetchChild, the one its
// /debug/traces handler (trace.Collector.Handler) is built with: it asks
// the backend at pool index backend for the child span of a tagged
// trace (TRACE GET <tid>/<span>) over that backend's pool.
func (rt *Router) FetchChild(tid uint64, backend, span uint32) trace.Child {
	ch := trace.Child{Span: span}
	if int(backend) >= len(rt.pools) {
		ch.Backend = "?"
		ch.Error = "bad backend index"
		return ch
	}
	ch.Backend = rt.ring.Label(int(backend))
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
	case wire.Head(wire.View(resp)) == "TRACE":
		ch.Trace = json.RawMessage(bytes.Clone(bytes.TrimPrefix(resp, []byte("TRACE ")))) // resp dies with Release
	default:
		ch.Error = string(resp)
	}
	c.Release()
	return ch
}
