package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wire"
)

// startTracedBackend boots a server with a slowlog-0 collector that
// admits every request.
func startTracedBackend(t testing.TB, engines ...string) *testBackend {
	t.Helper()
	sub := subsystem.New(0)
	for _, name := range engines {
		sl := caram.MustNew(caram.Config{
			IndexBits: 6,
			RowBits:   4*(1+64+32) + 8,
			KeyBits:   64,
			DataBits:  32,
			Index:     hash.NewMultShift(6),
		})
		if err := sub.AddEngine(&subsystem.Engine{Name: name, Main: sl}); err != nil {
			t.Fatal(err)
		}
	}
	col := trace.NewCollector(trace.Config{Slowlog: 0, Ring: 64})
	srv := server.New(sub, server.WithTracing(col))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns when the server closes
	t.Cleanup(func() { srv.Close() })
	return &testBackend{srv: srv, addr: l.Addr().String(), col: col}
}

// tracedCluster is the standard fixture for fleet-observability tests:
// two traced backends behind a router that head-samples every request
// — so every forward is tagged and its backend child stitches — and
// admits every request to its slowlog.
func tracedCluster(t testing.TB) (*Router, *trace.Collector) {
	t.Helper()
	bks := []*testBackend{startTracedBackend(t, "db"), startTracedBackend(t, "db")}
	col := trace.NewCollector(trace.Config{SampleN: 1, Slowlog: 0, Ring: 64})
	rt, _ := testRouter(t, bks, func(cfg *RouterConfig) { cfg.Tracing = col })
	return rt, col
}

// kvmap parses a "CMD k=v k=v ..." reply line into a map.
func kvmap(t *testing.T, line string) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for _, f := range strings.Fields(line)[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		m[k] = v
	}
	return m
}

// Mirrors of the router's /debug/traces JSON — the collector's document
// (trace.Collector.Handler), children filled by FetchChild —
// decode-side.
type sjHop struct {
	Kind    string `json:"kind"`
	Backend uint32 `json:"backend"`
	Span    uint32 `json:"span"`
}

type sjSpan struct {
	Kind string `json:"kind"`
}

type sjTrace struct {
	Cmd      string            `json:"cmd"`
	Key      string            `json:"key"`
	TID      string            `json:"tid"`
	Span     uint32            `json:"span"`
	Expected float64           `json:"expected_rows"`
	Probes   []json.RawMessage `json:"probes"`
	Spans    []sjSpan          `json:"spans"`
	Hops     []sjHop           `json:"hops"`
	Children []sjChild         `json:"children"`
}

type sjChild struct {
	Backend string          `json:"backend"`
	Span    uint32          `json:"span"`
	Trace   json.RawMessage `json:"trace"`
	Error   string          `json:"error"`
}

type sjRing struct {
	Len     int       `json:"len"`
	Entries []sjTrace `json:"entries"`
}

type sjTop struct {
	Policy struct {
		Sample    int   `json:"sample"`
		SlowlogUs int64 `json:"slowlog_us"`
		Ring      int   `json:"ring"`
	} `json:"policy"`
	Seen    uint64 `json:"seen"`
	Slowlog sjRing `json:"slowlog"`
	Tagged  sjRing `json:"tagged"`
	Sampled sjRing `json:"sampled"`
}

// routerTraces serves the router's /debug/traces the way caram-router
// mounts it and decodes the document.
func routerTraces(t *testing.T, rt *Router) (sjTop, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.trc.Handler(rt.FetchChild).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var top sjTop
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("/debug/traces JSON: %v\n%s", err, rec.Body.String())
	}
	return top, rec.Body.String()
}

// TestClusterTracingEndToEnd is the acceptance test for cluster
// tracing: a sampled (and slow) cluster SEARCH through a real router
// and two real backends is
// retrievable from the router as one stitched trace — router spans
// (queue wait, backend RTT) and backend spans (parse, match, encode,
// the probe chain ending in the hit, §3.4 expected-rows) side by side —
// and shows up source-tagged in the fleet SLOWLOG.
func TestClusterTracingEndToEnd(t *testing.T) {
	rt, col := tracedCluster(t)
	got := rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead")
	if got[0] != "OK" || !strings.HasPrefix(got[1], "HIT") {
		t.Fatalf("setup replies: %q", got)
	}

	// Fleet SLOWLOG: backend entries and the router's own, node-tagged.
	slow := rdrive(t, rt, "SLOWLOG GET")[0]
	if !strings.HasPrefix(slow, "SLOWLOG n=") {
		t.Fatalf("fleet slowlog: %q", slow)
	}
	for _, want := range []string{" node=router", " node=b", "cmd=SEARCH", "cmd=INSERT"} {
		if !strings.Contains(slow, want) {
			t.Errorf("fleet slowlog missing %q: %q", want, slow)
		}
	}

	// /debug/traces: the collector's policy and rings, then the
	// router's SEARCH trace with its backend children.
	top, body := routerTraces(t, rt)
	if p := top.Policy; p.Sample != 1 || p.SlowlogUs != 0 || p.Ring != 64 {
		t.Errorf("policy = %+v, want the collector's sample=1 slowlog_us=0 ring=64", p)
	}
	if top.Slowlog.Len != col.Slow().Len() || len(top.Slowlog.Entries) == 0 {
		t.Errorf("slowlog len=%d with %d entries, the collector retains %d",
			top.Slowlog.Len, len(top.Slowlog.Entries), col.Slow().Len())
	}
	var router *sjTrace
	for i, cand := range top.Slowlog.Entries {
		if cand.Cmd == "SEARCH" && cand.Key == "dead" {
			router = &top.Slowlog.Entries[i]
			break
		}
	}
	if router == nil {
		t.Fatalf("no SEARCH trace in the router's slowlog:\n%s", body)
	}
	if router.TID == "" {
		t.Fatal("router SEARCH trace has no wire trace id")
	}
	kinds := make(map[string]bool)
	for _, h := range router.Hops {
		kinds[h.Kind] = true
	}
	for _, want := range []string{"route", "queue_wait", "backend_rtt", "burst", "breaker"} {
		if !kinds[want] {
			t.Errorf("router trace missing %s hop: %+v", want, router.Hops)
		}
	}
	if len(router.Children) != 1 {
		t.Fatalf("SEARCH entry has %d backend children, want its one backend_rtt hop's:\n%s", len(router.Children), body)
	}
	child := router.Children[0]
	if child.Error != "" {
		t.Fatalf("child fetch failed: %s", child.Error)
	}
	if !strings.HasPrefix(child.Backend, "b") {
		t.Errorf("child backend label: %q", child.Backend)
	}
	var ct sjTrace
	if err := json.Unmarshal(child.Trace, &ct); err != nil {
		t.Fatalf("child trace JSON: %v\n%s", err, child.Trace)
	}
	if ct.Cmd != "SEARCH" || ct.TID != router.TID || ct.Span != child.Span {
		t.Errorf("child identity: cmd=%q tid=%q span=%d, want SEARCH/%q/%d",
			ct.Cmd, ct.TID, ct.Span, router.TID, child.Span)
	}
	var last struct {
		Hit bool `json:"hit"`
	}
	if n := len(ct.Probes); n == 0 {
		t.Error("child trace has no probe chain")
	} else if err := json.Unmarshal(ct.Probes[n-1], &last); err != nil || !last.Hit {
		t.Errorf("child probe chain does not end in the hit: %s (%v)", ct.Probes[n-1], err)
	}
	if ct.Expected <= 0 {
		t.Errorf("child trace expected_rows=%v, want the §3.4 analytic value > 0", ct.Expected)
	}
	spans := make(map[string]bool)
	for _, sp := range ct.Spans {
		spans[sp.Kind] = true
	}
	for _, want := range []string{"parse", "match", "encode"} {
		if !spans[want] {
			t.Errorf("child trace missing the backend's %s span: %+v", want, ct.Spans)
		}
	}
}

func TestRouterSlowlogAggregation(t *testing.T) {
	rt, _ := tracedCluster(t)
	rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead", "SEARCH db beef")

	lenLine := rdrive(t, rt, "SLOWLOG LEN")[0]
	m := kvmap(t, lenLine)
	if !strings.HasPrefix(lenLine, "SLOWLOG len=") || m["len"] == "0" {
		t.Fatalf("fleet SLOWLOG LEN: %q", lenLine)
	}

	// GET n caps the merged output, GET 0 yields none.
	if got := rdrive(t, rt, "SLOWLOG GET 2")[0]; !strings.HasPrefix(got, "SLOWLOG n=2 ") {
		t.Errorf("SLOWLOG GET 2: %q", got)
	}
	if got := rdrive(t, rt, "SLOWLOG GET 0")[0]; got != "SLOWLOG n=0" {
		t.Errorf("SLOWLOG GET 0: %q", got)
	}

	// Entries are merged slowest-first across nodes.
	full := rdrive(t, rt, "SLOWLOG GET")[0]
	var last int64 = 1 << 62
	for _, f := range strings.Fields(full)[1:] {
		if v, ok := strings.CutPrefix(f, "us="); ok {
			var us int64
			fmt.Sscanf(v, "%d", &us)
			if us > last {
				t.Fatalf("slowlog not sorted by latency: %q", full)
			}
			last = us
		}
	}

	// RESET clears every node's ring (and the router's own).
	if got := rdrive(t, rt, "SLOWLOG RESET")[0]; got != "OK" {
		t.Fatalf("SLOWLOG RESET: %q", got)
	}
	after := kvmap(t, rdrive(t, rt, "SLOWLOG LEN")[0])
	// The RESET and LEN requests themselves are traced (slowlog 0), so
	// a handful of fresh entries is fine — the pre-reset bulk is gone.
	if after["len"] >= m["len"] && len(after["len"]) >= len(m["len"]) {
		t.Errorf("SLOWLOG RESET did not shrink the fleet slowlog: %s -> %s", m["len"], after["len"])
	}
}

func TestRouterMetricsAggregation(t *testing.T) {
	rt, _ := tracedCluster(t)
	rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead", "SEARCH db beef")

	all := rdrive(t, rt, "METRICS")[0]
	if !strings.HasPrefix(all, "METRICS backends=2 ops=") {
		t.Fatalf("fleet METRICS: %q", all)
	}
	am := kvmap(t, all)
	if am["router_ops"] == "" || am["router_errors"] == "" {
		t.Errorf("fleet METRICS missing router totals: %q", all)
	}

	eng := rdrive(t, rt, "METRICS db")[0]
	if !strings.HasPrefix(eng, "METRICS engine=db ") {
		t.Fatalf("engine METRICS: %q", eng)
	}
	em := kvmap(t, eng)
	if em["insert"] != "1" || em["search"] != "2" {
		t.Errorf("fleet counters insert=%s search=%s, want 1 and 2: %q",
			em["insert"], em["search"], eng)
	}
	if em["n"] != "1" {
		t.Errorf("fleet records n=%s, want 1: %q", em["n"], eng)
	}

	lat := rdrive(t, rt, "METRICS db LATENCY search")[0]
	if !strings.HasPrefix(lat, "METRICS engine=db op=search n=2 err=0 mean_us=") ||
		!strings.Contains(lat, " p50_us=") || !strings.Contains(lat, " max_us=") {
		t.Errorf("fleet LATENCY merge: %q", lat)
	}

	hist := rdrive(t, rt, "METRICS db HIST search")[0]
	hm := kvmap(t, hist)
	if !strings.HasPrefix(hist, "METRICS engine=db op=search n=2 ") || hm["buckets"] == "" {
		t.Fatalf("fleet HIST merge: %q", hist)
	}
	var total int64
	for _, c := range strings.Split(hm["buckets"], ",") {
		var v int64
		fmt.Sscanf(c, "%d", &v)
		total += v
	}
	if total != 2 {
		t.Errorf("fleet HIST bucket mass %d, want 2 (bucket-wise sum across shards)", total)
	}
}

func TestRouterTraceGet(t *testing.T) {
	rt, col := tracedCluster(t)
	rdrive(t, rt, "INSERT db dead 42", "SEARCH db dead")

	// Miss: no node holds this id; the backend notfound ERR propagates.
	if got := rdrive(t, rt, "TRACE GET deadbeef")[0]; got != "ERR trace: notfound" {
		t.Errorf("TRACE GET miss: %q", got)
	}

	// Router-side hit: the router's own trace answers locally.
	var tid string
	for _, tr := range col.Slow().Snapshot(nil, 0) {
		if tr.Cmd == "SEARCH" && tr.TID != 0 {
			tid = fmt.Sprintf("%x", tr.TID)
			break
		}
	}
	if tid == "" {
		t.Fatal("router retained no tagged SEARCH trace")
	}
	got := rdrive(t, rt, "TRACE GET "+tid)[0]
	if !strings.HasPrefix(got, "TRACE {") || !strings.Contains(got, `"cmd":"SEARCH"`) {
		t.Fatalf("TRACE GET router hit: %q", got)
	}

	// Child hit: span 1 lives only on the owning backend; the router
	// misses locally and scatters.
	child := rdrive(t, rt, "TRACE GET "+tid+"/1")[0]
	if !strings.HasPrefix(child, "TRACE {") || !strings.Contains(child, `"span":1`) {
		t.Fatalf("TRACE GET child: %q", child)
	}
	if !strings.Contains(child, `"expected_rows":`) {
		t.Errorf("child trace lacks §3.4 expected_rows: %q", child)
	}

	// Grammar errors are the backend's to render.
	if got := rdrive(t, rt, "TRACE GET")[0]; !strings.HasPrefix(got, "ERR usage: TRACE GET") {
		t.Errorf("TRACE usage: %q", got)
	}
}

// TestRouterTracedTransparency: tracing must not change a single
// forwarded reply byte. Two routers over the same backends — one
// tagging or late-building every request, one with its idle
// collector — must answer identically.
func TestRouterTracedTransparency(t *testing.T) {
	bks := []*testBackend{startTracedBackend(t, "db"), startTracedBackend(t, "db")}
	plain, _ := testRouter(t, bks, nil)
	if got := rdrive(t, plain, "INSERT db dead 42")[0]; got != "OK" {
		t.Fatalf("INSERT: %q", got)
	}
	reqs := []string{
		"SEARCH db dead",
		"SEARCH db beef",
		"MSEARCH db dead db beef",
		"SEARCH db",
		"EXPLAIN SEARCH db dead",
		"nonsense request",
	}
	want := rdrive(t, plain, reqs...)
	for name, cfg := range map[string]trace.Config{
		"tagging every request":   {SampleN: 1, Slowlog: -1, Ring: 64},
		"late-building every one": {Slowlog: 0, Ring: 64},
	} {
		traced, _ := testRouter(t, bks, func(rc *RouterConfig) { rc.Tracing = trace.NewCollector(cfg) })
		for i, got := range rdrive(t, traced, reqs...) {
			if got != want[i] {
				t.Errorf("%s: reply %d diverged under tracing:\n  traced: %q\n  plain:  %q", name, i, got, want[i])
			}
		}
	}
}

// TestRouterSlowlogLateBuilt: with the slowlog on and sampling off the
// router tags nothing — the backend receives the client's bytes — and
// a request that turns out slow gets its trace built at settle, from
// the request bytes and the batch stamps: full identity — the verb row's
// engine and key positions, so exactly what the backend's own trace of
// the request names, for every verb — its own spans chained forward
// inside the wall latency, the backend index, no wire id and therefore
// no stitched child.
func TestRouterSlowlogLateBuilt(t *testing.T) {
	fb := startFakeBackend(t, func(conn, n int, line string) (string, bool) {
		return "HIT 0:000000000000002a", false
	})
	col := trace.NewCollector(trace.Config{Slowlog: 0, Ring: 64})
	rt, _ := testRouter(t, []*testBackend{{addr: fb.addr}}, func(cfg *RouterConfig) { cfg.Tracing = col })
	reqs := []string{"SEARCH db dead", "insert db beef 7", "MSEARCH db dead db beef",
		"TSEARCH tri the  quick fox", "minsert ip a0b00000 ffff 16"}
	rdrive(t, rt, reqs...)
	if got := fb.received(); strings.Join(got, "\n") != strings.Join(reqs, "\n") {
		t.Errorf("backend received %q, want the client's lines verbatim %q", got, reqs)
	}
	if col.Tagged().Total() != 0 || col.Sampled().Total() != 0 {
		t.Errorf("unsampled traffic reached the tagged/sampled rings: %d/%d",
			col.Tagged().Total(), col.Sampled().Total())
	}
	entries := col.Slow().Snapshot(nil, 0) // newest first
	if len(entries) != len(reqs) {
		t.Fatalf("slowlog holds %d entries, want %d", len(entries), len(reqs))
	}
	search, insert, msearch := entries[4], entries[3], entries[2]
	if search.Cmd != "SEARCH" || search.Engine != "db" || search.Key != "dead" || search.Result != "HIT" {
		t.Errorf("late-built SEARCH identity: %+v", search)
	}
	if insert.Cmd != "INSERT" || insert.Engine != "db" || insert.Key != "beef" {
		t.Errorf("late-built INSERT identity (verb is recorded upper-case): %+v", insert)
	}
	if msearch.Cmd != "MSEARCH" || msearch.Engine != "" {
		t.Errorf("late-built MSEARCH identity: %+v", msearch)
	}
	// What a server records for the same lines is the reference.
	scol := trace.NewCollector(trace.Config{Slowlog: 0, Ring: 64})
	direct := server.New(subsystem.New(0), server.WithTracing(scol))
	t.Cleanup(func() { direct.Close() })
	for i, got := range []*trace.Trace{entries[1], entries[0]} {
		direct.Exec(reqs[3+i])
		want := scol.Slow().Snapshot(nil, 1)[0]
		if got.Cmd != want.Cmd || got.Engine != want.Engine || got.Key != want.Key || want.Engine == "" {
			t.Errorf("late-built %q identity %s/%s/%s, the server records %s/%s/%s",
				reqs[3+i], got.Cmd, got.Engine, got.Key, want.Cmd, want.Engine, want.Key)
		}
	}
	for _, tr := range entries {
		if tr.TID != 0 {
			t.Errorf("%s: late-built trace carries wire id %x", tr.Cmd, tr.TID)
		}
		var at time.Duration
		seen := map[trace.Kind]bool{}
		for _, ev := range tr.Events {
			seen[ev.Kind] = true
			switch ev.Kind {
			case trace.KindRoute, trace.KindQueue, trace.KindRTT:
				if ev.Offset < at || ev.Dur < 0 {
					t.Errorf("%s: %s span [%v +%v] overlaps the previous one ending at %v",
						tr.Cmd, ev.Kind, ev.Offset, ev.Dur, at)
				}
				at = ev.Offset + ev.Dur
				if ev.Kind == trace.KindRTT && (ev.Bucket != 0 || ev.Span != 0) {
					t.Errorf("%s: backend_rtt backend=%d span=%d, want backend 0 and no child span",
						tr.Cmd, ev.Bucket, ev.Span)
				}
			case trace.KindBurst:
				if ev.Matches < 1 {
					t.Errorf("%s: burst of %d lines", tr.Cmd, ev.Matches)
				}
			}
		}
		for _, k := range []trace.Kind{trace.KindRoute, trace.KindQueue, trace.KindRTT, trace.KindBurst} {
			if !seen[k] {
				t.Errorf("%s: no %s event: %+v", tr.Cmd, k, tr.Events)
			}
		}
		if at > tr.Dur {
			t.Errorf("%s: spans end at %v, past the wall latency %v", tr.Cmd, at, tr.Dur)
		}
	}
	// Nothing to stitch: the document has the router's entries and no
	// children.
	top, body := routerTraces(t, rt)
	if p := top.Policy; p.Sample != 0 || p.SlowlogUs != 0 || p.Ring != 64 {
		t.Errorf("policy = %+v, want the collector's sample=0 slowlog_us=0 ring=64", p)
	}
	if top.Slowlog.Len != len(reqs) || len(top.Slowlog.Entries) != len(reqs) {
		t.Errorf("slowlog len=%d with %d entries, want %d", top.Slowlog.Len, len(top.Slowlog.Entries), len(reqs))
	}
	for _, e := range top.Slowlog.Entries {
		if len(e.Children) != 0 {
			t.Errorf("late-built entry has children: %s", body)
		}
	}
}

// TestRouterTraceKeyBounded: a retained TSEARCH records its text key as
// the server records it — at most wire.MaxText bytes, not the rest of a
// line of any length.
func TestRouterTraceKeyBounded(t *testing.T) {
	fb := startFakeBackend(t, func(conn, n int, line string) (string, bool) { return "ERR text too long", false })
	col := trace.NewCollector(trace.Config{Slowlog: 0, Ring: 8})
	rt, _ := testRouter(t, []*testBackend{{addr: fb.addr}}, func(cfg *RouterConfig) { cfg.Tracing = col })
	rdrive(t, rt, "TSEARCH tri "+strings.Repeat("x", 300))
	entries := col.Slow().Snapshot(nil, 0)
	if len(entries) != 1 || entries[0].Cmd != "TSEARCH" || entries[0].Engine != "tri" {
		t.Fatalf("slowlog = %+v, want the one TSEARCH on tri", entries)
	}
	if n := len(entries[0].Key); n > wire.MaxText {
		t.Errorf("retained TSEARCH key is %d bytes, want at most %d", n, wire.MaxText)
	}
}

// TestRouterTagsOnlySampled is the tag-what-you-keep rule on real
// backends: with the router's deployed flags (slowlog 10 ms, sampling
// off) no backend retains anything on the router's behalf, and with
// -trace-sample 4 exactly every fourth request does.
func TestRouterTagsOnlySampled(t *testing.T) {
	const n = 40
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = fmt.Sprintf("SEARCH db %x", i+1)
	}
	for _, tc := range []struct {
		sampleN int
		want    uint64
	}{{0, 0}, {4, n / 4}} {
		bks := []*testBackend{startTracedBackend(t, "db"), startTracedBackend(t, "db")}
		col := trace.NewCollector(trace.Config{SampleN: tc.sampleN, Slowlog: 10 * time.Millisecond})
		rt, _ := testRouter(t, bks, func(cfg *RouterConfig) { cfg.Tracing = col })
		rdrive(t, rt, reqs...)
		var tagged uint64
		for _, bk := range bks {
			for _, tr := range bk.col.Slow().Snapshot(nil, 0) { // backends admit everything (slowlog 0)
				if tr.TID != 0 {
					tagged++
				}
			}
			tagged += bk.col.Tagged().Total()
		}
		if tagged != tc.want {
			t.Errorf("-trace-sample %d: backends hold %d tagged traces after %d requests, want %d",
				tc.sampleN, tagged, n, tc.want)
		}
		if got := col.Tagged().Total() + col.Slow().Total(); got < tc.want {
			t.Errorf("-trace-sample %d: router kept %d traces, want at least the %d sampled", tc.sampleN, got, tc.want)
		}
	}
}

// TestRouterHealthMergeOrder: scatter merges visit backends in address
// order, so HEALTH and ENGINES output does not depend on how -backends
// was spelled. Two routers over the same fleet, opposite config order,
// must render identical rosters.
func TestRouterHealthMergeOrder(t *testing.T) {
	b0 := startBackend(t, "db", "aux")
	b1 := startBackend(t, "db", "zed")
	mk := func(bks ...*testBackend) *Router {
		backends := make([]Backend, len(bks))
		for i, b := range bks {
			backends[i] = Backend{Label: b.addr, Addr: b.addr} // production labeling
		}
		rt, err := NewRouter(RouterConfig{Backends: backends, Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rt.Close() })
		return rt
	}
	fwd := mk(b0, b1)
	rev := mk(b1, b0)
	for _, req := range []string{"HEALTH", "HEALTH db", "ENGINES"} {
		a := rdrive(t, fwd, req)[0]
		b := rdrive(t, rev, req)[0]
		if a != b {
			t.Errorf("%s depends on backend config order:\n  fwd: %q\n  rev: %q", req, a, b)
		}
		if head, _, _ := strings.Cut(req, " "); !strings.HasPrefix(a, head+" ") {
			t.Errorf("%s: %q", req, a)
		}
	}
}
