package cluster

import (
	"strconv"
	"strings"

	"caram/internal/wire"
)

// The reply grammar as data. Every admin reply that summarizes one
// engine or one node is "HEAD k=v k=v ...", and merging N of them is
// one loop: visit the replies in address order, fold each value into its
// key's accumulator by the key's rule, re-render in the first shard's
// key order — so the merged line has the server's own shape. The rules
// and the error policy are the verb's table row (wire.Verb.Fold,
// .Strict); a key without a rule sums. STATS, METRICS, HEALTH <eng>
// [SCRUB], WAL STATUS and SLOWLOG LEN all merge here.

// acc is one reply field in flight through the fold: a "k=v" pair under
// its key's rule, or a bare word (the "scrub" of "OK scrub ...") kept as
// the first shard spelled it.
type acc struct {
	key   string
	bare  bool
	rule  wire.Rule
	n     int64   // Sum, Min; Worst's rank
	f, w  float64 // Mean's sum; Weighted's Σ value·lookups and Σ lookups
	first string  // First, Same
	mixed bool    // Same: two shards disagreed
}

// atoi reads a decimal reply field. Merge inputs are server-rendered;
// anything else counts as zero.
func atoi(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

// foldReply folds one shard's reply into accs. lookups — the shard's
// hits+misses — weighs its Weighted keys, and is read first: it follows
// them on the line.
func foldReply(accs []acc, v *wire.Verb, reply string) []acc {
	var lookups float64
	sc := wire.Scan(reply)
	for k, val, ok := sc.NextKV(); ok; k, val, ok = sc.NextKV() {
		if k == "hits" || k == "misses" {
			lookups += float64(atoi(val))
		}
	}
	sc = wire.Scan(reply)
	sc.Next() // the head
	for tok, ok := sc.Next(); ok; tok, ok = sc.Next() {
		k, val, isKV := strings.Cut(tok, "=")
		rule := wire.First
		if isKV {
			rule = v.Rule(k)
		}
		if rule == wire.Omit {
			continue
		}
		i := 0
		for i < len(accs) && (accs[i].key != k || accs[i].bare == isKV) {
			i++
		}
		fresh := i == len(accs)
		if fresh {
			accs = append(accs, acc{key: k, bare: !isKV, rule: rule, first: val})
		}
		a := &accs[i]
		switch rule {
		case wire.Sum:
			a.n += atoi(val)
		case wire.Mean:
			x, _ := strconv.ParseFloat(val, 64)
			a.f += x
		case wire.Weighted:
			x, _ := strconv.ParseFloat(val, 64)
			a.f += x * lookups
			a.w += lookups
		case wire.Worst:
			a.n = max(a.n, int64(healthRank(val)))
		case wire.Min:
			if x := atoi(val); fresh || x < a.n {
				a.n = x
			}
		case wire.Same:
			a.mixed = a.mixed || a.first != val
		}
	}
	return accs
}

// fold merges a scatter's "head k=v ..." replies into one. A transport
// failure sheds the whole answer. A shard that answered something else
// (an ERR) either is the answer, verbatim (Strict rows: a partial sum
// would overstate), or shows only when no shard answered (the rest).
// count, if set, leads the merged line with how many shards it sums;
// self, if set, is the router's own contribution, folded in last as one
// more reply.
func (rt *Router) fold(out []byte, op *pendingOp, head, count, self string) []byte {
	v := op.verb
	var accs []acc
	var firstBad []byte
	shards := 0
	for _, bi := range rt.order {
		resp, err := op.calls[bi].Wait()
		if err != nil {
			return append(out, replyUnavailable...)
		}
		if wire.Head(wire.View(resp)) != head {
			if v.Strict {
				return append(out, resp...)
			}
			if firstBad == nil {
				firstBad = resp
			}
			continue
		}
		shards++
		accs = foldReply(accs, v, wire.View(resp))
	}
	if shards == 0 {
		if firstBad != nil {
			return append(out, firstBad...)
		}
		return append(out, replyUnavailable...)
	}
	if self != "" {
		accs = foldReply(accs, v, self)
	}
	out = append(out, head...)
	if count != "" {
		out = append(append(append(out, ' '), count...), '=')
		out = strconv.AppendInt(out, int64(shards), 10)
	}
	for i := range accs {
		a := &accs[i]
		out = append(append(out, ' '), a.key...)
		if a.bare {
			continue
		}
		out = append(out, '=')
		switch a.rule {
		case wire.Sum, wire.Min:
			out = strconv.AppendInt(out, a.n, 10)
		case wire.Mean:
			out = strconv.AppendFloat(out, a.f/float64(shards), 'f', 3, 64)
		case wire.Weighted:
			// NaN with zero lookups, like a fresh engine's.
			out = strconv.AppendFloat(out, a.f/a.w, 'f', 3, 64)
		case wire.Worst:
			out = append(out, healthNames[a.n]...)
		case wire.Same:
			if a.mixed {
				out = append(out, "mixed"...)
				break
			}
			fallthrough
		case wire.First:
			out = append(out, a.first...)
		}
	}
	return out
}

// mergeFold folds replies headed by the verb's own name: STATS,
// HEALTH <eng>, METRICS <eng>.
func (rt *Router) mergeFold(out []byte, op *pendingOp) []byte {
	return rt.fold(out, op, op.verb.Name, "", "")
}

// mergeScrub: HEALTH <eng> SCRUB — every shard scrubs, the "OK scrub
// ..." repair reports sum.
func (rt *Router) mergeScrub(out []byte, op *pendingOp) []byte {
	return rt.fold(out, op, wire.ReplyOK, "", "")
}

// mergeWAL: WAL STATUS across the fleet — each node numbers its own
// log, so the summed horizons are fleet totals over nodes=N logs.
func (rt *Router) mergeWAL(out []byte, op *pendingOp) []byte {
	return rt.fold(out, op, op.verb.Name, "nodes", "")
}
