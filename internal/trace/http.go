package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// JSON shapes for the /debug/traces endpoint. The wire SLOWLOG command
// is the terse, single-line view; this endpoint is the full structured
// dump a human (or the metrics-smoke gate) reads.

type probeJSON struct {
	Bucket       uint32 `json:"bucket"`
	Displacement int32  `json:"d"`
	Slots        int32  `json:"slots"`
	Matches      int32  `json:"matches"`
	Overflow     bool   `json:"ovf"`
	Hit          bool   `json:"hit"`
}

// spanJSON is a timed span, or an untimed event that carries its data
// in place of a window: an ecc event's row, the bits it corrected and
// whether it quarantined the row; a retries event's count.
type spanJSON struct {
	Kind        string  `json:"kind"`
	OffsetNs    int64   `json:"offset_ns"`
	DurNs       int64   `json:"dur_ns"`
	Bucket      *uint32 `json:"bucket,omitempty"`
	Corrected   int32   `json:"corrected_bits,omitempty"`
	Quarantined bool    `json:"quarantined,omitempty"`
	N           int32   `json:"n,omitempty"`
}

// hopJSON is a router-side span: one event of the proxied request's
// journey through the backend pools. Backend is the pool index (the
// entry's children name its label); Span is the child span id for
// backend_rtt hops.
type hopJSON struct {
	Kind     string `json:"kind"`
	Backend  uint32 `json:"backend"`
	Span     uint32 `json:"span,omitempty"`
	N        int32  `json:"n,omitempty"`
	Open     bool   `json:"open,omitempty"`
	OffsetNs int64  `json:"offset_ns"`
	DurNs    int64  `json:"dur_ns"`
}

type entryJSON struct {
	ID        uint64      `json:"id"`
	TID       string      `json:"tid,omitempty"` // wire trace id, hex
	Span      uint32      `json:"span,omitempty"`
	Cmd       string      `json:"cmd"`
	Engine    string      `json:"engine,omitempty"`
	Key       string      `json:"key,omitempty"`
	StartUnix int64       `json:"start_unix_ns"`
	Us        float64     `json:"us"`
	Result    string      `json:"result,omitempty"`
	Home      uint32      `json:"home"`
	Reach     int32       `json:"reach"`
	Rows      int32       `json:"rows"`
	Found     bool        `json:"found"`
	Expected  float64     `json:"expected_rows,omitempty"`
	Probes    []probeJSON `json:"probes,omitempty"`
	Spans     []spanJSON  `json:"spans,omitempty"`
	Hops      []hopJSON   `json:"hops,omitempty"`
	Children  []Child     `json:"children,omitempty"`
}

// Child is one backend_rtt hop's own trace, fetched from the backend it
// was tagged for (TRACE GET <tid>/<span>) when the tagging tier serves
// its /debug/traces: router spans (queue wait, backend RTT, retries,
// breaker) and backend spans (lock wait, probe chain, §3.4
// expected-rows) in one document. Trace is the backend's TRACE GET
// payload; Error says why there is none — the child may legitimately be
// gone (ring wraparound) by the time someone looks.
type Child struct {
	Backend string          `json:"backend"`
	Span    uint32          `json:"span"`
	Trace   json.RawMessage `json:"trace,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// FetchChild fetches the child trace of a tagged trace's backend_rtt
// hop: wire trace id tid, pool index backend, child span id span.
type FetchChild func(tid uint64, backend, span uint32) Child

type ringJSON struct {
	Len     int         `json:"len"`
	Total   uint64      `json:"total"`
	Entries []entryJSON `json:"entries"`
}

type tracesJSON struct {
	Policy struct {
		SampleN   int   `json:"sample"`
		SlowlogUs int64 `json:"slowlog_us"` // -1 when the slowlog is off
		Ring      int   `json:"ring"`
	} `json:"policy"`
	Seen    uint64   `json:"seen"`
	Slowlog ringJSON `json:"slowlog"`
	Tagged  ringJSON `json:"tagged"`
	Sampled ringJSON `json:"sampled"`
}

func entryView(t *Trace) entryJSON {
	e := entryJSON{
		ID:        t.ID,
		Cmd:       t.Cmd,
		Engine:    t.Engine,
		Key:       t.Key,
		StartUnix: t.Begin.UnixNano(),
		Us:        float64(t.Dur) / float64(time.Microsecond),
		Result:    t.Result,
		Home:      t.Home,
		Reach:     t.Reach,
		Rows:      t.Rows,
		Found:     t.Found,
	}
	if t.TID != 0 {
		e.TID = strconv.FormatUint(t.TID, 16)
		e.Span = t.SpanID
	}
	for _, ev := range t.Events {
		switch ev.Kind {
		case KindProbe:
			e.Probes = append(e.Probes, probeJSON{
				Bucket:       ev.Bucket,
				Displacement: ev.Displacement,
				Slots:        ev.SlotsTested,
				Matches:      ev.Matches,
				Overflow:     ev.Overflow,
				Hit:          ev.Hit,
			})
		case KindEcc:
			bucket := ev.Bucket
			e.Spans = append(e.Spans, spanJSON{Kind: ev.Kind.String(), Bucket: &bucket, Corrected: ev.Matches, Quarantined: ev.Hit})
		case KindRetries:
			e.Spans = append(e.Spans, spanJSON{Kind: ev.Kind.String(), N: ev.Matches})
		case KindRoute, KindQueue, KindRTT, KindBurst, KindBreaker, KindRetry:
			h := hopJSON{
				Kind:     ev.Kind.String(),
				Backend:  ev.Bucket,
				Span:     ev.Span,
				OffsetNs: int64(ev.Offset),
				DurNs:    int64(ev.Dur),
				Open:     ev.Hit,
			}
			if ev.Kind == KindBurst || ev.Kind == KindRetry {
				h.N = ev.Matches
			}
			e.Hops = append(e.Hops, h)
		default:
			e.Spans = append(e.Spans, spanJSON{
				Kind:     ev.Kind.String(),
				OffsetNs: int64(ev.Offset),
				DurNs:    int64(ev.Dur),
			})
		}
	}
	return e
}

// AppendJSON appends the trace's compact single-line JSON entry — the
// same shape /debug/traces serves — to dst. expected, when positive,
// is the engine's §3.4 analytic expected-rows value computed at fetch
// time; it rides along so a stitched view can show measured probe
// chains next to the model. This is the payload of the TRACE GET wire
// reply; it allocates and is not for hot paths.
func (t *Trace) AppendJSON(dst []byte, expected float64) []byte {
	if t == nil {
		return append(dst, "null"...)
	}
	e := entryView(t)
	if expected > 0 {
		e.Expected = expected
	}
	b, err := json.Marshal(e)
	if err != nil { // unreachable: entryJSON has no unmarshalable fields
		return append(dst, "null"...)
	}
	return append(dst, b...)
}

func ringView(r *Ring, max int, fetch FetchChild) ringJSON {
	v := ringJSON{Len: r.Len(), Total: r.Total(), Entries: []entryJSON{}}
	for _, t := range r.Snapshot(nil, max) {
		e := entryView(t)
		if fetch != nil && t.TID != 0 {
			for _, ev := range t.Events {
				if ev.Kind == KindRTT {
					e.Children = append(e.Children, fetch(t.TID, ev.Bucket, ev.Span))
				}
			}
		}
		v.Entries = append(v.Entries, e)
	}
	return v
}

// Handler serves the collector's state as JSON — mounted at
// /debug/traces by both tiers' metrics mux. The optional ?n= query
// bounds how many entries of each ring are returned (default 32).
// fetch, when set, fills each tagged entry's children: the router
// passes its backend fetch, so a retained request's backend traces sit
// under it; the server, a leaf, passes nil. Child fetches are lazy,
// per-request wire calls, so retention stays cheap.
func (c *Collector) Handler(fetch FetchChild) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if c == nil {
			_, _ = w.Write([]byte(`{"disabled":true}` + "\n"))
			return
		}
		max := 32
		if q := req.URL.Query().Get("n"); q != "" {
			// Tolerant parse: anything non-numeric keeps the default.
			n := 0
			for i := 0; i < len(q) && q[i] >= '0' && q[i] <= '9'; i++ {
				n = n*10 + int(q[i]-'0')
			}
			if n > 0 {
				max = n
			}
		}
		var v tracesJSON
		v.Policy.SampleN = c.SampleN()
		v.Policy.SlowlogUs = -1
		if thr, ok := c.SlowThreshold(); ok {
			v.Policy.SlowlogUs = int64(thr / time.Microsecond)
		}
		v.Policy.Ring = c.slow.Cap()
		v.Seen = c.Seen()
		v.Slowlog = ringView(c.slow, max, fetch)
		v.Tagged = ringView(c.tagged, max, fetch)
		v.Sampled = ringView(c.sampled, max, fetch)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
}
