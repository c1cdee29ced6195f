package server

import (
	"strconv"
	"strings"

	"caram/internal/bitutil"
	"caram/internal/trace"
)

// Wire access to the tracing layer: the SLOWLOG and EXPLAIN commands.
//
// Both are built for determinism first. EXPLAIN prints only positional
// facts about the lookup it runs — bucket indices, displacements, slot
// and match counts, the overflow-CAM outcome, and the §3.4 analytic
// expectation — never timings, so a scripted session produces the same
// bytes every run and the golden test can hold the format exactly.
// SLOWLOG GET prints retained entries with their measured latency, so
// only its empty/LEN/RESET forms appear in the golden session.

// resultToken returns the first token of a reply as an interned
// constant, so stamping a trace's Result does not allocate. Unknown
// prefixes (none exist today) fall back to a clone.
func resultToken(reply []byte) string {
	i := 0
	for i < len(reply) && reply[i] != ' ' {
		i++
	}
	switch string(reply[:i]) { // compiled to a non-allocating comparison
	case "OK":
		return "OK"
	case "HIT":
		return "HIT"
	case "MISS":
		return "MISS"
	case "MISS!":
		return "MISS!"
	case "HEALTH":
		return "HEALTH"
	case "ERR":
		return "ERR"
	case "STATS":
		return "STATS"
	case "ENGINES":
		return "ENGINES"
	case "MRESULTS":
		return "MRESULTS"
	case "METRICS":
		return "METRICS"
	case "SLOWLOG":
		return "SLOWLOG"
	case "EXPLAIN":
		return "EXPLAIN"
	case "TRACE":
		return "TRACE"
	}
	return strings.Clone(string(reply[:i]))
}

// ResultToken returns the first token of a wire reply as an interned
// constant — the label a trace records as its Result. Exported for the
// cluster router, which stamps the same vocabulary on its own spans.
func ResultToken(reply []byte) string { return resultToken(reply) }

// parseWireID parses the `<hex-id>[/<span-id>]` operand of the *TID
// annotation and the TRACE GET command: a 64-bit hex trace id,
// optionally followed by a slash and a decimal span id.
func parseWireID(s string) (tid uint64, span uint32, ok bool) {
	idS := s
	if i := strings.IndexByte(s, '/'); i >= 0 {
		idS = s[:i]
		v, err := strconv.ParseUint(s[i+1:], 10, 32)
		if err != nil {
			return 0, 0, false
		}
		span = uint32(v)
	}
	v, ok := ParseHex64(idS)
	return v, span, ok
}

// execTraceAppend answers TRACE GET: it fetches a retained trace by
// its wire trace id and prints it as one compact JSON object — the
// remote side of cross-node trace stitching. The caller that tagged
// the request (normally the cluster router) knows the id it minted;
// everyone else discovers ids via SLOWLOG GET or /debug/traces. A
// SEARCH trace's reply also carries the engine's current §3.4
// expected-rows value, computed at fetch time, so the stitched view
// shows the measured probe chain next to the model.
func (s *Server) execTraceAppend(dst []byte, fs *FieldScanner) []byte {
	const usage = "ERR usage: TRACE GET <hex-id>[/<span-id>]"
	sub, ok0 := fs.next()
	arg, ok1 := fs.next()
	if _, extra := fs.next(); !ok0 || !ok1 || extra || !strings.EqualFold(sub, "GET") {
		return append(dst, usage...)
	}
	if s.trc == nil {
		return append(dst, "ERR tracing disabled"...)
	}
	tid, span, ok := parseWireID(arg)
	if !ok {
		return append(dst, usage...)
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

// maxSlowlogGet bounds the n of SLOWLOG GET n: far above any sane ring
// size, far below anything that could size a hostile allocation.
const maxSlowlogGet = 1 << 20

// execSlowlogAppend answers the SLOWLOG command against the slowlog
// ring. GET prints the newest entries (optionally capped at n) on one
// line, newest first; LEN the retained count; RESET clears the ring.
func (s *Server) execSlowlogAppend(dst []byte, fs *FieldScanner) []byte {
	const usage = "ERR usage: SLOWLOG GET [n] | SLOWLOG LEN | SLOWLOG RESET"
	sub, ok := fs.next()
	if !ok {
		return append(dst, usage...)
	}
	if s.trc == nil {
		return append(dst, "ERR tracing disabled"...)
	}
	ring := s.trc.Slow()
	switch strings.ToUpper(sub) {
	case "LEN":
		if _, extra := fs.next(); extra {
			return append(dst, usage...)
		}
		dst = append(dst, "SLOWLOG len="...)
		return appendInt(dst, int64(ring.Len()))
	case "RESET":
		if _, extra := fs.next(); extra {
			return append(dst, usage...)
		}
		ring.Reset()
		return append(dst, "OK"...)
	case "GET":
		max := 0 // all retained
		if arg, has := fs.next(); has {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 0 {
				return append(dst, usage...)
			}
			if v > maxSlowlogGet {
				// The ring itself clamps a snapshot at its retained
				// length, but the request is still nonsense: reject it
				// outright so no future ring (or caller pre-sizing on
				// n) can be talked into an attacker-sized allocation.
				return append(dst, "ERR slowlog: n too large"...)
			}
			if _, extra := fs.next(); extra {
				return append(dst, usage...)
			}
			max = v
			if max == 0 {
				max = -1 // "GET 0" means none, not all
			}
		}
		var entries []*trace.Trace
		if max >= 0 {
			entries = ring.Snapshot(nil, max)
		}
		dst = append(dst, "SLOWLOG n="...)
		dst = appendInt(dst, int64(len(entries)))
		for _, t := range entries {
			dst = append(dst, " id="...)
			dst = appendUint(dst, t.ID)
			dst = append(dst, " us="...)
			dst = appendInt(dst, t.Dur.Microseconds())
			dst = append(dst, " cmd="...)
			dst = append(dst, t.Cmd...)
			dst = append(dst, " engine="...)
			dst = append(dst, t.Engine...)
			dst = append(dst, " key="...)
			dst = append(dst, t.Key...)
			dst = append(dst, " result="...)
			dst = append(dst, t.Result...)
			dst = append(dst, " rows="...)
			dst = appendInt(dst, int64(t.Rows))
		}
		return dst
	default:
		return append(dst, usage...)
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
// uniformly random stored record under the current placement
// (mean(1 + displacement)); rows= is what this lookup measured. The
// lookup is real — it charges access statistics and counts as a search
// in the metrics layer, exactly like the request it explains.
func (s *Server) execExplainAppend(dst []byte, fs *FieldScanner) []byte {
	const usage = "ERR usage: EXPLAIN SEARCH <engine> <key> [mask]"
	sub, ok0 := fs.next()
	eng, ok1 := fs.next()
	keyS, ok2 := fs.next()
	maskS, hasMask := fs.next()
	if _, extra := fs.next(); !ok0 || !ok1 || !ok2 || extra || !strings.EqualFold(sub, "SEARCH") {
		return append(dst, usage...)
	}
	key, err := parseVec(keyS)
	if err != nil {
		return appendErr(dst, err)
	}
	search := bitutil.Exact(key)
	if hasMask {
		mask, err := parseVec(maskS)
		if err != nil {
			return appendErr(dst, err)
		}
		search = bitutil.NewTernary(key, mask)
	}
	tr := trace.New()
	tr.Request("SEARCH", eng, keyS)
	sr, expected, err := s.con.Explain(eng, search, tr)
	if err != nil {
		return appendErr(dst, err)
	}
	tr.End()
	dst = append(dst, "EXPLAIN engine="...)
	dst = append(dst, eng...)
	dst = append(dst, " key="...)
	dst = append(dst, keyS...)
	dst = append(dst, " home="...)
	dst = appendUint(dst, uint64(tr.Home))
	dst = append(dst, " reach="...)
	dst = appendInt(dst, int64(tr.Reach))
	dst = append(dst, " rows="...)
	dst = appendInt(dst, int64(tr.Rows))
	if m, ok := tr.EventOf(trace.KindMatch); ok {
		dst = append(dst, " slots="...)
		dst = appendInt(dst, int64(m.SlotsTested))
		dst = append(dst, " matches="...)
		dst = appendInt(dst, int64(m.Matches))
		dst = append(dst, " passes="...)
		dst = appendInt(dst, int64(m.Passes))
	}
	dst = append(dst, " expected="...)
	dst = appendFixed(dst, expected, 3)
	dst = append(dst, " result="...)
	if sr.Found {
		dst = append(dst, "HIT"...)
	} else {
		dst = append(dst, "MISS"...)
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
	dst = append(dst, "] ovfl="...)
	switch e, ok := tr.EventOf(trace.KindOverflow); {
	case !ok:
		dst = append(dst, "none"...)
	case e.Hit:
		dst = append(dst, "hit"...)
	default:
		dst = append(dst, "miss"...)
	}
	return dst
}
