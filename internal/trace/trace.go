// Package trace is the request-scoped tracing layer: where
// internal/metrics answers "how is the server doing on average", this
// package answers "what did *this* request actually do" — which home
// bucket the index generator selected, how many buckets the probe
// chain touched (the per-request contribution to the paper's AMAL,
// §3.4), and where the wall-clock time went (parse, engine lock wait, match, reply encode).
//
// The design constraints, in order:
//
//  1. Zero cost when off. Every recording method is nil-safe — a nil
//     *Trace (and a nil *Collector) turns the whole layer into a
//     handful of predictable branches, so the search hot path stays
//     allocation-free with tracing compiled in but disabled (guarded
//     by the alloc-regression CI).
//  2. Race-safe retention. Admitted traces land in fixed-size
//     lock-free rings (atomic slot pointers + a sequence counter);
//     concurrent record, snapshot and reset never block each other.
//  3. Two admission policies: probabilistic sampling (1-in-N, counter
//     based so tests are deterministic) and a Redis-style slowlog —
//     every request whose wall latency exceeds the threshold is kept
//     with its full probe trace.
//
// The package depends only on the standard library and imports nothing
// from this repository, so any layer (caram, subsystem, server) may
// thread a *Trace through without cycles.
package trace

import (
	"strconv"
	"strings"
	"time"
)

// Kind enumerates span/event types along the request path, in stack
// order from the server's parser down to the match kernel and back.
type Kind uint8

const (
	// KindParse covers request parsing and validation in the server
	// (command word, engine name, hex keys).
	KindParse Kind = iota
	// KindLockWait is the wait for the target engine's port lock —
	// the queueing delay in front of the slice's single row port.
	KindLockWait
	// KindProbe is one bucket probe of the CA-RAM lookup chain: one
	// row fetched and matched. Payload: bucket index, displacement
	// from the home bucket, slots tested, match count, and whether
	// the probe was an overflow hop (displacement > 0).
	KindProbe
	// KindMatch aggregates the match kernel's work over the whole
	// lookup: total slots tested, total matches, pipelined passes.
	KindMatch
	// KindEncode covers appending the reply to the output buffer.
	KindEncode
	// KindEcc is a per-row error-coding event on the probe path: the
	// row's check word disagreed with its contents and the ECC layer
	// either corrected a single-bit error in place (Matches = bits
	// corrected) or quarantined the row as uncorrectable (Hit=true
	// marks quarantine). Positional like KindProbe, not timed.
	KindEcc
	// KindRetries reports how many seqlock snapshots the lock-free
	// search path re-read after observing a concurrent writer mid-
	// publish (Matches = torn snapshots retried). Emitted at most once
	// per request, only when nonzero. Not timed.
	KindRetries

	// The remaining kinds are router-side spans (internal/cluster): a
	// proxied request's lifecycle from the frontend parser through the
	// backend pools. Bucket carries the backend index for all of them.

	// KindRoute covers frontend parsing plus the consistent-hash ring
	// lookup that picked the backend. Timed.
	KindRoute
	// KindQueue is the queue wait: routed until the connection writer
	// picked the request's batch up (the client's batch, then the lane).
	// Timed (Offset/Dur are measured on the pool's own clock stamps).
	KindQueue
	// KindRTT is the backend round trip: the coalesced write until the
	// call's batch was answered. Span carries the child span id this
	// call was tagged with (*TID <id>/<span>; 0 = untagged), so a
	// stitcher can fetch the backend's own trace for this hop. Timed.
	KindRTT
	// KindBurst records coalesced-burst membership: Matches is how
	// many lines shared the single write this call rode in. Not timed.
	KindBurst
	// KindBreaker records the backend's circuit breaker's part in the
	// call (Hit = it was open and shed the call unsent). Not timed.
	KindBreaker
	// KindRetry is one idempotent-read retry attempt after a backend
	// connection died (Matches = attempt number, 1-based). Not timed.
	KindRetry
	// KindWALAppend times a mutation's durability window: journal
	// append through the group-commit wait (fsync under sync=always).
	KindWALAppend
)

// String names the kind for logs and JSON.
func (k Kind) String() string {
	switch k {
	case KindParse:
		return "parse"
	case KindLockWait:
		return "lock_wait"
	case KindProbe:
		return "probe"
	case KindMatch:
		return "match"
	case KindEncode:
		return "encode"
	case KindEcc:
		return "ecc"
	case KindRetries:
		return "retries"
	case KindRoute:
		return "route"
	case KindQueue:
		return "queue_wait"
	case KindRTT:
		return "backend_rtt"
	case KindBurst:
		return "burst"
	case KindBreaker:
		return "breaker"
	case KindRetry:
		return "retry"
	case KindWALAppend:
		return "wal_append"
	}
	return "unknown"
}

// Event is one recorded step. It is a small plain struct (no pointers)
// so a Trace's event list reuses one backing array across pooled
// reuses. Fields beyond Kind are kind-specific; unused ones are zero.
type Event struct {
	Kind Kind

	// Probe / match payload.
	Bucket       uint32 // bucket index probed
	Displacement int32  // probe distance from the home bucket
	SlotsTested  int32  // valid slots compared in this row / lookup
	Matches      int32  // slots that matched
	Passes       int32  // pipelined match passes (KindMatch)
	Span         uint32 // child span id this hop was tagged with (KindRTT)
	Overflow     bool   // probe left the home bucket (an overflow hop)
	Hit          bool   // this probe matched

	// Span timing: offset from the trace's Begin and duration. Zero
	// for untimed events (probes are positional, not timed — the
	// hardware fetches rows at a fixed cadence).
	Offset time.Duration
	Dur    time.Duration
}

// Trace accumulates one request's events. A Trace is owned by exactly
// one goroutine while recording; once admitted to a ring it is
// immutable and may be read concurrently.
//
// The zero-value-pointer contract: every method is safe on a nil
// receiver and does nothing, so call sites need no "is tracing on"
// branches beyond what the compiler generates for the nil check.
type Trace struct {
	ID     uint64        // admission sequence number (0 until admitted)
	TID    uint64        // wire trace id (*TID annotation); 0 = unpropagated
	SpanID uint32        // span id within the parent trace (0 = root)
	Cmd    string        // wire command, upper-case
	Engine string        // target engine ("" when the command has none)
	Key    string        // key field as received ("" when none)
	Begin  time.Time     // request start (per command, not per burst)
	Dur    time.Duration // wall latency, set by Collector.Observe
	Result string        // first reply token: OK, HIT, MISS, ERR, ...

	// Lookup summary, recorded by the caram layer.
	Home  uint32 // home bucket the index generator selected
	Reach int32  // home bucket's recorded overflow reach
	Rows  int32  // rows accessed (this request's AMAL contribution)
	Found bool

	Events []Event

	sampled bool // chosen by the 1-in-N sampler at Begin
}

// Enabled reports whether the trace is live. It is the idiomatic guard
// for work that only matters when tracing (building strings, summing
// aggregates); plain recording calls don't need it.
func (t *Trace) Enabled() bool { return t != nil }

// Request records the command identity. The strings may be substrings
// of the request line; the Collector clones them on admission so a
// retained trace does not pin a connection buffer, upper-casing cmd (an
// unknown verb arrives as the client spelled it).
func (t *Trace) Request(cmd, engine, key string) {
	if t == nil {
		return
	}
	t.Cmd, t.Engine, t.Key = cmd, engine, key
}

// SetWire joins this trace to a caller-supplied wire trace id: the
// server records the (*TID <id>/<span>) annotation here, and the
// router stamps the ids it tags forwarded commands with. A nonzero
// TID makes the trace retainable in the collector's tagged ring, so a
// parent tier can fetch it later with TRACE GET.
func (t *Trace) SetWire(tid uint64, span uint32) {
	if t == nil {
		return
	}
	t.TID, t.SpanID = tid, span
}

// Add appends one pre-built event. The typed recorders above cover the
// engine path; Add is the generic seam for router-side events whose
// field mix (backend index, child span id, burst size) has no
// dedicated recorder.
func (t *Trace) Add(e Event) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, e)
}

// SetResult records the first token of the reply.
func (t *Trace) SetResult(r string) {
	if t == nil {
		return
	}
	t.Result = r
}

// Probe records one bucket probe of the lookup chain.
func (t *Trace) Probe(bucket uint32, displacement, slotsTested, matches int, hit bool) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:         KindProbe,
		Bucket:       bucket,
		Displacement: int32(displacement),
		SlotsTested:  int32(slotsTested),
		Matches:      int32(matches),
		Overflow:     displacement > 0,
		Hit:          hit,
	})
}

// Ecc records a per-row error-coding event: correctedBits bits fixed
// in place on bucket, or (quarantined=true) the row taken out of
// service as uncorrectable.
func (t *Trace) Ecc(bucket uint32, correctedBits int, quarantined bool) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:    KindEcc,
		Bucket:  bucket,
		Matches: int32(correctedBits),
		Hit:     quarantined,
	})
}

// Retries records how many torn seqlock snapshots the lock-free
// search path re-read while serving this request. Zero retries emit
// nothing, so uncontended requests trace identically with either
// read path.
func (t *Trace) Retries(n int) {
	if t == nil || n == 0 {
		return
	}
	t.Events = append(t.Events, Event{Kind: KindRetries, Matches: int32(n)})
}

// Match records the match kernel's aggregate work for the lookup.
func (t *Trace) Match(slotsTested, matches, passes int) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:        KindMatch,
		SlotsTested: int32(slotsTested),
		Matches:     int32(matches),
		Passes:      int32(passes),
	})
}

// Lookup records the caram-level lookup summary.
func (t *Trace) Lookup(home uint32, reach, rows int, found bool) {
	if t == nil {
		return
	}
	t.Home, t.Reach, t.Rows, t.Found = home, int32(reach), int32(rows), found
}

// Span records a timed stage that started at start and ends now.
// Callers take the start timestamp only when the trace is enabled:
//
//	var start time.Time
//	if tr.Enabled() { start = time.Now() }
//	... stage ...
//	tr.Span(trace.KindLockWait, start)
func (t *Trace) Span(k Kind, start time.Time) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, Event{
		Kind:   k,
		Offset: start.Sub(t.Begin),
		Dur:    time.Since(start),
	})
}

// ProbeEvents calls fn for each KindProbe event in record order.
func (t *Trace) ProbeEvents(fn func(Event)) {
	if t == nil {
		return
	}
	for _, e := range t.Events {
		if e.Kind == KindProbe {
			fn(e)
		}
	}
}

// EventOf returns the first event of the given kind.
func (t *Trace) EventOf(k Kind) (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	for _, e := range t.Events {
		if e.Kind == k {
			return e, true
		}
	}
	return Event{}, false
}

// End stamps the trace's wall latency, for a trace no collector
// observes (EXPLAIN's forced trace).
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.Dur = time.Since(t.Begin)
}

// reset clears the trace for pooled reuse, keeping the event array.
func (t *Trace) reset() {
	events := t.Events[:0]
	*t = Trace{Events: events}
}

// detach clones any strings that may alias a caller buffer, making the
// trace safe to retain after the request line is recycled, and names the
// command upper-case.
func (t *Trace) detach() {
	t.Cmd = strings.ToUpper(strings.Clone(t.Cmd))
	t.Engine = strings.Clone(t.Engine)
	t.Key = strings.Clone(t.Key)
	t.Result = strings.Clone(t.Result)
}

// New returns a standalone trace beginning now — the forced-on form
// EXPLAIN uses, independent of any collector.
func New() *Trace {
	return &Trace{Begin: time.Now(), Events: make([]Event, 0, 8)}
}

// AppendSlowlog appends the trace as one SLOWLOG GET entry — "id=.. us=..
// cmd=.. engine=.. key=.. result=.. rows=.." — the entry grammar a
// server prints its slowlog in and a router re-renders its own entries
// in, so a fleet-merged SLOWLOG is shape-uniform across nodes.
func (t *Trace) AppendSlowlog(dst []byte) []byte {
	dst = strconv.AppendUint(append(dst, "id="...), t.ID, 10)
	dst = strconv.AppendInt(append(dst, " us="...), t.Dur.Microseconds(), 10)
	dst = append(append(dst, " cmd="...), t.Cmd...)
	dst = append(append(dst, " engine="...), t.Engine...)
	dst = append(append(dst, " key="...), t.Key...)
	dst = append(append(dst, " result="...), t.Result...)
	return strconv.AppendInt(append(dst, " rows="...), int64(t.Rows), 10)
}
