// Package wire is the line protocol's one grammar — the field scanner,
// the key, wire-id and annotation parsers, the verb table and the reply
// tokens — the one connection lifecycle it is served over (Endpoint) and
// the one client it is spoken through (Client). The server
// (internal/server) executes a parsed Request; the cluster router
// (internal/cluster) places one on its backends and folds their
// replies; both read the same rows and serve through the same loop, so
// the two tiers cannot drift (the paper's one request port and one
// result port, §3.2, Figure 5). The package imports nothing above
// internal/bitutil.
//
// Protocol (one request per line, space-separated, keys in hex, either
// plain "<lo>" or wide "<hi>:<lo>"; verbs and keywords are
// case-insensitive):
//
//	SEARCH <engine> <key> [mask]
//	INSERT <engine> <key> <data>
//	DELETE <engine> <key>
//	MSEARCH <engine> <key> [<engine> <key> ...]
//	TSEARCH <engine> <text>
//	TINSERT <engine> <score> <text>
//	MINSERT <engine> <key> <mask> <data>
//	MDELETE <engine> <key> <mask>
//	EXPLAIN SEARCH <engine> <key> [mask]
//	STATS <engine>
//	ENGINES
//	CREATE ENGINE <name> TYPE <type> [INDEXBITS <n>] [SLOTS <n>] [ECC]
//	DROP ENGINE <name>
//	HEALTH [engine [SCRUB]]
//	METRICS [engine [LATENCY <op>]]
//	SLOWLOG GET [n] | SLOWLOG LEN | SLOWLOG RESET
//	TRACE GET <hex-id>[/<span-id>]
//	WAL STATUS [SYNC]
//
// Each line above is its verb's Usage string, verbatim (a test holds
// the box, README's and the table to each other); a malformed request
// draws "ERR usage: " plus that line. Any request may be prefixed with
// the tracing annotation "*TID <hex-id>/<span-id>": it joins the
// request's trace to the caller's trace id and is otherwise invisible —
// the reply is byte-identical to the bare command's, on a server and
// through a router (which routes by the inner verb and forwards the
// client's bytes unchanged).
//
// CREATE ENGINE adds a typed engine to the live server (type one of
// exact, lpm, pktclass, trigram); DROP ENGINE removes one. SEARCH on
// an lpm engine answers the longest matching prefix, on a pktclass
// engine the highest-priority matching rule — the type carries the
// ranking, the request line stays the same. MINSERT/MDELETE are the
// masked (ternary) writes of the lpm/pktclass engines: mask bits are
// don't-cares, and the store duplicates each rule across its wildcard
// hash buckets (§4's ternary duplication). TINSERT/TSEARCH are the
// trigram engine's text-keyed forms — the text (rest of the line,
// spaces allowed) folds into the 16-byte key image of §6's trigram
// signatures, and a hit returns the stored score.
//
// Responses: "OK", "HIT <data>", "MISS", "STATS n=.. alpha=.. amal=..",
// "ENGINES a b c", "MRESULTS r1 r2 ...", "METRICS ...", "SLOWLOG ...",
// "EXPLAIN ...", "HEALTH ...", "TRACE {json}", "WAL ..." or
// "ERR <reason>". A SEARCH that could not rule the key out — its row is
// quarantined or unreadable under the error-coding layer — answers
// "MISS!", the explicit miss-with-error. Each MRESULTS slot is
// "HIT:<hi>:<lo>", "MISS", "MISS!", "ERR:no-engine", or
// "ERR:unavailable" (circuit breaker open), in request order.
//
// HEALTH reads the fault-tolerance layer (internal/subsystem): with no
// argument it lists every engine's availability state, with an engine
// it prints the state plus the error-coding counters behind it, and
// HEALTH <engine> SCRUB runs the scrub pass — restoring quarantined
// rows from the insert-side shadow — and reports what it repaired.
//
// METRICS reads the observability layer (internal/metrics): with no
// argument it reports registry totals; with an engine it reports that
// engine's per-op counters and live gauges (all deterministic for a
// scripted session); with LATENCY <op> it adds the op's latency
// quantiles in microseconds (wall-clock, inherently nondeterministic),
// and with HIST <op> the raw bucket counts a router merges.
//
// SLOWLOG, TRACE and EXPLAIN read the request-scoped tracing layer
// (internal/trace). SLOWLOG is the Redis-style slow-request log: every
// request whose wall latency exceeded the collector's threshold is
// retained; GET prints the newest entries on one line, LEN the retained
// count, RESET clears the log. TRACE GET prints one retained trace,
// found by the wire id a *TID annotation gave it. Which spans a retained
// trace has depends on how it came to be kept. A request the sampler
// picked or a *TID annotation tagged was traced as it ran: parse,
// lock_wait, the probe chain with its slot and match counts, match,
// encode and, for a journaled write, wal_append. Any other request ran
// untraced, and if it proved slow its entry was built afterwards from
// what it left behind: identity, result, the lookup's rows and a
// positional probe chain (buckets and the hit, no counts), and
// wal_append — never parse, lock_wait or encode.
// EXPLAIN SEARCH runs a real lookup with tracing forced on and
// prints the probe chain deterministically — home bucket, recorded
// reach, one chain element per bucket probed (bucket index,
// displacement, slots tested, match count, overflow hop) and the §3.4
// analytic expectation of rows accessed next to the measured count.
// SLOWLOG and TRACE require the server to be built WithTracing; EXPLAIN
// always works (it forces its own trace). WAL STATUS prints the durability layer's commit horizon.
//
// Connection-level replies. Both tiers serve their connections through
// this package's Endpoint (conn.go), which answers a pipelined burst
// with one write. Replies come back in request order, and a reply is
// written only after its request has run: on the server a burst's
// consecutive writes (INSERT, DELETE, MINSERT, MDELETE, TINSERT) to one
// engine are applied together, in order, but always before that burst's
// flush — before the reply to any other request of the burst that follows
// them. These four lines are the Endpoint's own, each the last
// thing its connection hears, after the replies to every request read
// before it:
//
//	ERR BUSY           -> the connection cap is reached: shed at accept, nothing was read
//	ERR timeout        -> a read or idle deadline expired; a partially received line is not executed
//	ERR line too long  -> a request line passed MaxLineBytes (64 KiB)
//	ERR read: <error>  -> the transport failed mid-stream; a partial final line was still executed
//
// A stream that ends (EOF) has its final unterminated line executed; a
// graceful shutdown answers what was already read; neither adds a line.
//
// Client (client.go) is the other end of a connection, written once: one
// connection to one address, dialed on the first write and redialed on
// the first write after it dies. Callers fill a Batch (request lines
// back to back, one Call each) and Submit it; the writer coalesces the
// batches queued since its last Write into one, and the reader pairs
// reply lines with batches in FIFO pipeline order, signalling each batch
// once, on its last reply. Do is the one-line blocking form of the same
// path. A line without a reply fails with a typed error: ErrBusy (shed
// at accept with ERR BUSY), ErrConnLost (closed or failed mid-flight, or
// desynced by a reply nobody awaited), ErrReplyTooLong (past
// MaxLineBytes: a framing error), ErrDial (nothing sent) or
// ErrClientClosed. Of a batch whose connection dies, the first k replies
// stand and lines k..n-1 fail. A ClientHook gates batches and hears each
// write, settled batch and death (the router's breaker and counters).
//
// Field lifetime: a Scanner yields substrings of the line it was given,
// and both tiers hand it a View of their connection's read buffer, so a
// field is valid only until that connection's next read. Whatever must
// outlive the request clones the field where it is stored: an engine
// name entering a roster (server CREATE, the router's pin set) and the
// identity of a trace the collector retains.
package wire
