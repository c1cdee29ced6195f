package server

import (
	"strconv"

	"caram/internal/trace"
	"caram/internal/wire"
)

// Wire access to the tracing layer: the SLOWLOG and EXPLAIN commands.
//
// Both are built for determinism first. EXPLAIN prints only positional
// facts about the lookup it runs — bucket indices, displacements, slot
// and match counts, and the §3.4 analytic expectation — never timings,
// so a scripted session produces the same bytes every run and the
// golden test can hold the format exactly.
// SLOWLOG GET prints retained entries with their measured latency, so
// only its empty/LEN/RESET forms appear in the golden session.

// execTraceAppend answers TRACE GET: it fetches a retained trace by
// its wire trace id and prints it as one compact JSON object — the
// remote side of cross-node trace stitching. The caller that tagged
// the request (normally the cluster router) knows the id it minted;
// everyone else discovers ids via SLOWLOG GET or /debug/traces. A
// SEARCH trace's reply also carries the engine's current §3.4
// expected-rows value, computed at fetch time, so the stitched view
// shows the measured probe chain next to the model.
func (s *Server) execTraceAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	sub, ok0 := fs.Next()
	arg, ok1 := fs.Next()
	if _, extra := fs.Next(); !ok0 || !ok1 || extra || !wire.EqualFold(sub, "GET") {
		return appendUsage(dst, v)
	}
	if s.trc == nil {
		return append(dst, "ERR tracing disabled"...)
	}
	tid, span, ok := wire.ParseWireID(arg)
	if !ok {
		return appendUsage(dst, v)
	}
	t := s.trc.Find(tid, span)
	if t == nil {
		return append(dst, "ERR trace: notfound"...)
	}
	var expected float64
	if t.Cmd == "SEARCH" && t.Engine != "" {
		if e, ok := s.con.ExpectedRows(t.Engine); ok {
			expected = e
		}
	}
	dst = append(dst, "TRACE "...)
	return t.AppendJSON(dst, expected)
}

// execSlowlogAppend answers the SLOWLOG command against the slowlog
// ring. GET prints the newest entries (optionally capped at n) on one
// line, newest first; LEN the retained count; RESET clears the ring.
func (s *Server) execSlowlogAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	sub, ok := fs.Next()
	if !ok {
		return appendUsage(dst, v)
	}
	if s.trc == nil {
		return append(dst, "ERR tracing disabled"...)
	}
	ring := s.trc.Slow()
	switch {
	case wire.EqualFold(sub, "LEN"):
		if _, extra := fs.Next(); extra {
			return appendUsage(dst, v)
		}
		return appendKV(append(dst, "SLOWLOG"...), "len", ring.Len())
	case wire.EqualFold(sub, "RESET"):
		if _, extra := fs.Next(); extra {
			return appendUsage(dst, v)
		}
		ring.Reset()
		return append(dst, wire.ReplyOK...)
	case wire.EqualFold(sub, "GET"):
		max := 0 // all retained
		if arg, has := fs.Next(); has {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return appendUsage(dst, v)
			}
			if n > wire.MaxSlowlogGet {
				// The ring itself clamps a snapshot at its retained
				// length, but the request is still nonsense: reject it
				// outright so no future ring (or caller pre-sizing on
				// n) can be talked into an attacker-sized allocation.
				return append(dst, "ERR slowlog: n too large"...)
			}
			if _, extra := fs.Next(); extra {
				return appendUsage(dst, v)
			}
			max = n
			if max == 0 {
				max = -1 // "GET 0" means none, not all
			}
		}
		var entries []*trace.Trace
		if max >= 0 {
			entries = ring.Snapshot(nil, max)
		}
		dst = appendKV(append(dst, "SLOWLOG"...), "n", len(entries))
		for _, t := range entries {
			dst = t.AppendSlowlog(append(dst, ' '))
		}
		return dst
	default:
		return appendUsage(dst, v)
	}
}

// execExplainAppend answers EXPLAIN SEARCH: it runs a real lookup with
// tracing forced on (independent of the server's collector — EXPLAIN
// works on an untraced server) and prints the probe chain alongside the
// analytic model. One chain element per bucket probed:
//
//	b<bucket>:d<displacement>:s<slots>:m<matches>[:ovf][:hit]
//
// expected= is the §3.4 analytic expectation of rows accessed for a
// uniformly random stored copy under the current placement
// (caram.Slice.ExpectedRows: mean(1 + displacement from its home));
// rows= is what this lookup measured. The
// lookup is real — it charges access statistics and counts as a search
// in the metrics layer, exactly like the request it explains.
func (s *Server) execExplainAppend(dst []byte, v *wire.Verb, fs *wire.Scanner) []byte {
	sub, ok0 := fs.Next()
	eng, ok1 := fs.Next()
	keyS, ok2 := fs.Next()
	maskS, _ := fs.Next()
	if _, extra := fs.Next(); !ok0 || !ok1 || !ok2 || extra || !wire.EqualFold(sub, "SEARCH") {
		return appendUsage(dst, v)
	}
	search, bad := parseKey(keyS, maskS)
	if bad != "" {
		return appendBadHex(dst, bad)
	}
	tr := trace.New()
	sr, expected, err := s.con.Explain(eng, search, tr)
	if err != nil {
		return appendErr(dst, err)
	}
	tr.End()
	dst = append(dst, "EXPLAIN engine="...)
	dst = append(dst, eng...)
	dst = append(dst, " key="...)
	dst = append(dst, keyS...)
	dst = appendKV(dst, "home", tr.Home)
	dst = appendKV(dst, "reach", tr.Reach)
	dst = appendKV(dst, "rows", tr.Rows)
	if m, ok := tr.EventOf(trace.KindMatch); ok {
		dst = appendKV(dst, "slots", m.SlotsTested)
		dst = appendKV(dst, "matches", m.Matches)
		dst = appendKV(dst, "passes", m.Passes)
	}
	dst = appendKVf(dst, "expected", expected, 3)
	dst = append(dst, " result="...)
	if sr.Found {
		dst = append(dst, wire.ReplyHit...)
	} else {
		dst = append(dst, wire.ReplyMiss...)
	}
	dst = append(dst, " chain=["...)
	first := true
	tr.ProbeEvents(func(e trace.Event) {
		if !first {
			dst = append(dst, ' ')
		}
		first = false
		dst = append(dst, 'b')
		dst = appendUint(dst, uint64(e.Bucket))
		dst = append(dst, ":d"...)
		dst = appendInt(dst, int64(e.Displacement))
		dst = append(dst, ":s"...)
		dst = appendInt(dst, int64(e.SlotsTested))
		dst = append(dst, ":m"...)
		dst = appendInt(dst, int64(e.Matches))
		if e.Overflow {
			dst = append(dst, ":ovf"...)
		}
		if e.Hit {
			dst = append(dst, ":hit"...)
		}
	})
	return append(dst, ']')
}
