// Command metrics-smoke is the observability end-to-end check behind
// `make metrics-smoke`: it builds cmd/caram-server, starts it with
// both the wire port and the -http port on ephemeral addresses, drives
// a small mixed workload over TCP, then asserts that
//
//   - /metrics serves every family a server with a write-ahead log
//     declares (its metrics.Exposition), each under its declared
//     # TYPE, with the op counts the workload implies and, on this first
//     boot, a recovery that dropped nothing and found no seal,
//   - the server runs with -data and a 100 ms snapshot cadence: the
//     caram_wal_snapshot* families read at least one completed snapshot
//     of nonzero size whose capture time is part of its total,
//   - the HEALTH wire command reports healthy engines with zeroed
//     error-coding counters and HEALTH <engine> SCRUB runs a scrub,
//   - /debug/vars answers,
//   - METRICS over the wire agrees with the scrape,
//   - the tracing layer works end to end: with a zero slowlog
//     threshold every request is retained, SLOWLOG LEN/GET/RESET see
//     them over the wire, EXPLAIN prints a probe chain, and
//     /debug/traces serves the slowlog JSON with per-request probe
//     events,
//   - typed engines work over the wire: one lpm, pktclass, and trigram
//     engine each is created with CREATE ENGINE and driven through a
//     typed operation, the scrape carries their engine_type-labelled
//     families, /debug/traces retains the typed requests, and DROP
//     ENGINE removes the engine from the exposition, and
//   - SIGINT shuts the server down cleanly (exit code 0).
//
// It then repeats the exercise one tier up: cmd/caram-router is built
// and started in front of two caram-server backends (both tiers with a
// zero slowlog threshold, so every request is retained, and the router
// with -trace-sample 1, so every forward is tagged), a sharded
// workload is driven through the router's wire port, and
//
//   - the router's own /metrics scrape must carry every family the
//     router declares, with ops spread across both shards, closed
//     breakers, and a populated burst histogram,
//   - the fleet commands answer over the router's wire port: METRICS
//     sums backend counters next to the router's own, SLOWLOG GET
//     k-way merges backend slowlogs with node= provenance,
//   - the router's /debug/traces serves the server's document — its
//     policy reads the router's flags — and each retained router trace
//     carries its queue-wait/RTT spans plus, as children, the backend
//     trace fetched lazily via TRACE GET; the child's wire id is
//     fetchable directly with TRACE GET <id>/<span>,
//
// and SIGINT must stop the router with exit code 0 too.
//
// It exits non-zero with a diagnostic on the first failed assertion,
// so it works as a CI gate without a test framework.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"caram/internal/metrics"
	"caram/internal/wal"
	"caram/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("metrics-smoke: ")
	if err := smoke(); err != nil {
		log.Fatal(err)
	}
	log.Print("PASS")
}

// smoke builds both binaries once, then runs the server-tier check and
// the router-tier one.
func smoke() error {
	dir, err := os.MkdirTemp("", "metrics-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srvBin, rtBin := filepath.Join(dir, "caram-server"), filepath.Join(dir, "caram-router")
	for _, b := range [][2]string{{srvBin, "./cmd/caram-server"}, {rtBin, "./cmd/caram-router"}} {
		build := exec.Command("go", "build", "-o", b[0], b[1])
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", b[1], err)
		}
	}
	if err := run(srvBin, filepath.Join(dir, "data")); err != nil {
		return err
	}
	if err := runCluster(srvBin, rtBin); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

func run(bin, dataDir string) error {
	wireAddr, httpAddr, err := freeAddrs()
	if err != nil {
		return err
	}
	// -slowlog-us 0 admits every request with nonzero latency into the
	// slowlog (any real request qualifies); -log-level error keeps the
	// resulting per-request Warn lines out of the CI output.
	srv := exec.Command(bin, "-addr", wireAddr, "-http", httpAddr, "-engines", "db,aux", "-indexbits", "8",
		"-slowlog-us", "0", "-log-level", "error", "-ecc",
		"-data", dataDir, "-snapshot-every", "100ms")
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return fmt.Errorf("start caram-server: %w", err)
	}
	defer srv.Process.Kill() //nolint:errcheck // belt and braces; the happy path interrupts

	c := wire.NewClient(wireAddr, wire.ClientConfig{})
	defer c.Close()

	// A small workload with known counts: 2 inserts, 2 searches (one
	// miss), 1 delete, 2 msearch slots, 1 unknown-engine request.
	if err := expect(c, []step{
		{"INSERT db dead 42", "OK"},
		{"INSERT aux beef 7", "OK"},
		{"SEARCH db dead", "HIT 0:0000000000000042"},
		{"SEARCH db beef", "MISS"},
		{"MSEARCH db dead aux beef", "MRESULTS HIT:0:0000000000000042 HIT:0:0000000000000007"},
		{"DELETE db dead", "OK"},
		{"SEARCH ghost 1", `ERR subsystem: no engine "ghost"`},
		{"METRICS", "METRICS engines=2 ops=7 errors=0 unknown=1"},
		// The fault-tolerance surface (-ecc is on): everything healthy,
		// a scrub over clean arrays repairs nothing, and the scrub run
		// shows up in the counters.
		{"HEALTH", "HEALTH db=healthy aux=healthy"},
		{"HEALTH db", "HEALTH engine=db state=healthy quarantined=0 corrected=0 uncorrectable=0 read_errors=0 scrubs=0 scrub_bits=0"},
		{"HEALTH db SCRUB", "OK scrub engine=db rows=0 bits=0 released=0"},
		{"HEALTH db", "HEALTH engine=db state=healthy quarantined=0 corrected=0 uncorrectable=0 read_errors=0 scrubs=1 scrub_bits=0"},
	}); err != nil {
		return err
	}

	body, err := get("http://" + httpAddr + "/metrics")
	if err != nil {
		return err
	}
	if err := carries(body, serverDeclared); err != nil {
		return err
	}
	for _, want := range []string{
		`caram_ops_total{engine="db",engine_type="exact",op="insert"} 1`,
		`caram_ops_total{engine="db",engine_type="exact",op="search"} 2`,
		`caram_ops_total{engine="db",engine_type="exact",op="delete"} 1`,
		`caram_ops_total{engine="db",engine_type="exact",op="msearch"} 1`,
		`caram_ops_total{engine="aux",engine_type="exact",op="msearch"} 1`,
		`caram_op_latency_seconds_count{engine="db",engine_type="exact",op="search"} 2`,
		`caram_engine_records{engine="db",engine_type="exact"} 0`,
		`caram_engine_records{engine="aux",engine_type="exact"} 1`,
		`caram_engine_lookups_total{engine="db",engine_type="exact"} 3`,
		`caram_engine_hits_total{engine="db",engine_type="exact"} 2`,
		`caram_engine_misses_total{engine="db",engine_type="exact"} 1`,
		`caram_engine_health{engine="db",engine_type="exact"} 0`,
		"caram_unknown_engine_total 1",
		// The durability layer: three acked mutations, on a first boot.
		"caram_wal_appended_lsn 3",
		"caram_wal_durable_lsn 3",
		"caram_wal_recovery_dropped_records 0",
		"caram_wal_recovery_clean_shutdown 0",
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	// The snapshotter ticks every 100 ms: within a few ticks the
	// snapshot family must report a completed, nonzero-sized snapshot
	// whose capture (the writer stall) is part of its total time.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		body, err := get("http://" + httpAddr + "/metrics")
		if err != nil {
			return err
		}
		n, _ := scrapeValue(body, "caram_wal_snapshots_total ")
		size, _ := scrapeValue(body, "caram_wal_snapshot_bytes ")
		total, _ := scrapeValue(body, "caram_wal_snapshot_seconds_total ")
		capture, _ := scrapeValue(body, "caram_wal_snapshot_capture_seconds_total ")
		if n >= 1 && size > 16 && capture > 0 && capture <= total {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("snapshot family never showed a completed snapshot: snapshots=%g bytes=%g seconds=%g capture=%g", n, size, total, capture)
		}
	}

	// Tracing over the wire. The zero threshold admitted all 12 requests
	// above; LEN reads the ring before its own trace is admitted (End
	// runs after the reply is built), so the count is exact.
	if err := expect(c, []step{{"SLOWLOG LEN", "SLOWLOG len=12"}}); err != nil {
		return err
	}
	explain, err := ask(c, "EXPLAIN SEARCH aux beef")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"EXPLAIN engine=aux key=beef ",
		" rows=1 ",
		" matches=1 ",
		" expected=1.000 ",
		" result=HIT ",
		":d0:",
		":hit]",
	} {
		if !strings.Contains(explain, want) {
			return fmt.Errorf("EXPLAIN missing %q in %q", want, explain)
		}
	}
	// The newest slowlog entry is the EXPLAIN request itself (admitted
	// when it ended, after the lookup it explains).
	if err := expectHas(c, "SLOWLOG GET 1", "SLOWLOG n=1 id=", " cmd=EXPLAIN "); err != nil {
		return err
	}

	// /debug/traces: the structured JSON view of the same rings.
	traces, err := get("http://" + httpAddr + "/debug/traces")
	if err != nil {
		return err
	}
	var tv struct {
		Policy struct {
			SlowlogUs int64 `json:"slowlog_us"`
			Ring      int   `json:"ring"`
		} `json:"policy"`
		Seen    uint64 `json:"seen"`
		Slowlog struct {
			Len     int `json:"len"`
			Entries []struct {
				ID     uint64 `json:"id"`
				Cmd    string `json:"cmd"`
				Result string `json:"result"`
				Rows   int32  `json:"rows"`
				Probes []struct {
					Bucket  uint32 `json:"bucket"`
					Matches int32  `json:"matches"`
					Hit     bool   `json:"hit"`
				} `json:"probes"`
				Spans []struct {
					Kind string `json:"kind"`
				} `json:"spans"`
			} `json:"entries"`
		} `json:"slowlog"`
		Sampled struct {
			Len int `json:"len"`
		} `json:"sampled"`
	}
	if err := json.Unmarshal([]byte(traces), &tv); err != nil {
		return fmt.Errorf("/debug/traces not JSON: %w", err)
	}
	if tv.Policy.SlowlogUs != 0 || tv.Policy.Ring <= 0 {
		return fmt.Errorf("/debug/traces policy: got slowlog_us=%d ring=%d", tv.Policy.SlowlogUs, tv.Policy.Ring)
	}
	if tv.Seen < 10 || tv.Slowlog.Len < 9 {
		return fmt.Errorf("/debug/traces retention: seen=%d slowlog.len=%d", tv.Seen, tv.Slowlog.Len)
	}
	sawProbes := false
	for _, e := range tv.Slowlog.Entries {
		if e.ID == 0 || e.Cmd == "" {
			return fmt.Errorf("/debug/traces entry missing id/cmd: %+v", e)
		}
		if e.Cmd == "SEARCH" && e.Result == "HIT" && len(e.Probes) > 0 && e.Rows > 0 {
			sawProbes = true
		}
	}
	if !sawProbes {
		return fmt.Errorf("/debug/traces: no SEARCH HIT entry with a probe chain\n%s", traces)
	}

	// RESET clears the ring; the RESET request itself is admitted right
	// after its reply is built, so the next LEN sees exactly one entry.
	if err := expect(c, []step{{"SLOWLOG RESET", "OK"}, {"SLOWLOG LEN", "SLOWLOG len=1"}}); err != nil {
		return err
	}

	// Typed engines: create one of each type over the wire and drive
	// one typed operation each — the same process now serves all four
	// engine shapes.
	if err := expect(c, []step{
		{"CREATE ENGINE ip TYPE lpm INDEXBITS 8 SLOTS 8", "OK"},
		{"CREATE ENGINE acl TYPE pktclass INDEXBITS 8 SLOTS 8", "OK"},
		{"CREATE ENGINE tri TYPE trigram INDEXBITS 8", "OK"},
		{"MINSERT ip a000000 ffffff 801", "OK"},
		{"MINSERT ip a010000 ffff 1002", "OK"},
		{"SEARCH ip a010101", "HIT 0:0000000000001002"}, // longest prefix, not first match
		{"MINSERT acl a01010000:1bb000006 ffff:ffffff0000ffff00 0:1010064", "OK"},
		{"SEARCH acl a010107c0:a8000101bb303906", "HIT 0:0000000001010064"},
		{"TINSERT tri 2a the quick fox", "OK"},
		{"TSEARCH tri the quick fox", "HIT 0:000000000000002a"},
		{"TSEARCH tri missing text", "MISS"},
	}); err != nil {
		return err
	}

	// The scrape now carries engine_type-labelled families for every
	// typed engine beside the exact ones.
	body, err = get("http://" + httpAddr + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		`caram_ops_total{engine="ip",engine_type="lpm",op="insert"} 2`,
		`caram_ops_total{engine="ip",engine_type="lpm",op="search"} 1`,
		`caram_ops_total{engine="acl",engine_type="pktclass",op="insert"} 1`,
		`caram_ops_total{engine="acl",engine_type="pktclass",op="search"} 1`,
		`caram_ops_total{engine="tri",engine_type="trigram",op="insert"} 1`,
		`caram_ops_total{engine="tri",engine_type="trigram",op="search"} 2`,
		`caram_op_latency_seconds_count{engine="tri",engine_type="trigram",op="search"} 2`,
		`caram_engine_records{engine="tri",engine_type="trigram"} 1`,
		`caram_engine_hits_total{engine="ip",engine_type="lpm"} 1`,
		`caram_engine_misses_total{engine="tri",engine_type="trigram"} 1`,
		`caram_engine_health{engine="acl",engine_type="pktclass"} 0`,
	} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("/metrics missing %q after typed workload\n%s", want, body)
		}
	}

	// /debug/traces retained the typed requests (the ring was reset
	// just before the typed workload, so they dominate it).
	traces, err = get("http://" + httpAddr + "/debug/traces")
	if err != nil {
		return err
	}
	for _, want := range []string{`"cmd": "TSEARCH"`, `"cmd": "MINSERT"`, `"engine": "ip"`} {
		if !strings.Contains(traces, want) {
			return fmt.Errorf("/debug/traces missing %q after typed workload\n%s", want, traces)
		}
	}

	// DROP unregisters the engine from the exposition entirely.
	if err := expect(c, []step{{"DROP ENGINE acl", "OK"}}); err != nil {
		return err
	}
	body, err = get("http://" + httpAddr + "/metrics")
	if err != nil {
		return err
	}
	if strings.Contains(body, `engine="acl"`) {
		return fmt.Errorf(`/metrics still exposes engine="acl" after DROP`)
	}

	if _, err := get("http://" + httpAddr + "/debug/vars"); err != nil {
		return err
	}

	// Graceful shutdown: SIGINT, then the process must exit 0.
	return interrupt(srv, "server")
}

// runCluster is the router-tier smoke: caram-router in front of two
// caram-server backends, a sharded workload, and the router's own
// Prometheus exposition.
func runCluster(srvBin, rtBin string) error {
	// Two backends, then the router in front of them. The health
	// watcher stays off so the op counters below are exactly the
	// workload's.
	var bkAddrs [2]string
	var bkProcs [2]*exec.Cmd
	for i := range bkAddrs {
		addr, _, err := freeAddrs()
		if err != nil {
			return err
		}
		bk := exec.Command(srvBin, "-addr", addr, "-engines", "db", "-indexbits", "8",
			"-slowlog-us", "0", "-log-level", "error")
		bk.Stderr = os.Stderr
		if err := bk.Start(); err != nil {
			return fmt.Errorf("start backend %d: %w", i, err)
		}
		defer bk.Process.Kill() //nolint:errcheck
		bkAddrs[i], bkProcs[i] = addr, bk
	}
	for _, addr := range bkAddrs { // up before the router needs them
		c := wire.NewClient(addr, wire.ClientConfig{})
		err := expect(c, []step{{"ENGINES", "ENGINES db"}})
		c.Close()
		if err != nil {
			return err
		}
	}
	wireAddr, httpAddr, err := freeAddrs()
	if err != nil {
		return err
	}
	// -trace-sample 1 tags every forward, so backend traces stitch under
	// the router's; -slowlog-us 0 keeps every request in the slowlog.
	rt := exec.Command(rtBin, "-addr", wireAddr, "-http", httpAddr,
		"-backends", bkAddrs[0]+","+bkAddrs[1], "-health-interval", "0",
		"-trace-sample", "1", "-slowlog-us", "0", "-log-level", "error")
	rt.Stderr = os.Stderr
	if err := rt.Start(); err != nil {
		return fmt.Errorf("start caram-router: %w", err)
	}
	defer rt.Process.Kill() //nolint:errcheck

	c := wire.NewClient(wireAddr, wire.ClientConfig{})
	defer c.Close()

	// 64 keys shard across both backends; every reply is
	// self-validating, and the fleet METRICS line counts the 128
	// forwarded ops exactly.
	const n = 64
	steps := make([]step, 2*n)
	for i := 1; i <= n; i++ {
		steps[i-1] = step{fmt.Sprintf("INSERT db %x %x", i, i), "OK"}
		steps[n+i-1] = step{fmt.Sprintf("SEARCH db %x", i), fmt.Sprintf("HIT 0:%016x", i)}
	}
	if err := expect(c, steps); err != nil {
		return fmt.Errorf("through the router: %w", err)
	}
	// The router answers METRICS fleet-wide: backend counters summed,
	// the router's own forward totals alongside.
	if err := expectHas(c, "METRICS", fmt.Sprintf("METRICS backends=2 ops=%d errors=0 unknown=0 router_ops=", 2*n),
		" router_errors=0"); err != nil {
		return err
	}
	if err := expectHas(c, "METRICS db", "METRICS engine=db ", fmt.Sprintf(" insert=%d ", n),
		fmt.Sprintf(" search=%d ", n)); err != nil {
		return err
	}
	if err := expectHas(c, "METRICS db LATENCY search", fmt.Sprintf("METRICS engine=db op=search n=%d ", n),
		" p99_us="); err != nil {
		return err
	}

	// The fleet slowlog merges both backends' rings with the router's
	// own, every entry stamped with where it was measured.
	if err := expectHas(c, "SLOWLOG GET 5", "SLOWLOG n=5 ", " node="); err != nil {
		return err
	}

	// /debug/traces on the router is the server's document: the
	// collector's policy and rings, each router entry with its backend
	// child traces fetched over the wire with TRACE GET.
	stitched, err := get("http://" + httpAddr + "/debug/traces")
	if err != nil {
		return err
	}
	var sv struct {
		Policy struct {
			Sample    int   `json:"sample"`
			SlowlogUs int64 `json:"slowlog_us"`
		} `json:"policy"`
		Slowlog struct {
			Entries []struct {
				Cmd  string `json:"cmd"`
				TID  string `json:"tid"`
				Hops []struct {
					Kind string `json:"kind"`
				} `json:"hops"`
				Children []struct {
					Backend string          `json:"backend"`
					Span    uint32          `json:"span"`
					Trace   json.RawMessage `json:"trace"`
					Error   string          `json:"error"`
				} `json:"children"`
			} `json:"entries"`
		} `json:"slowlog"`
	}
	if err := json.Unmarshal([]byte(stitched), &sv); err != nil {
		return fmt.Errorf("router /debug/traces not JSON: %w", err)
	}
	if sv.Policy.Sample != 1 || sv.Policy.SlowlogUs != 0 {
		return fmt.Errorf("router /debug/traces policy: got sample=%d slowlog_us=%d, want the flags' 1 and 0",
			sv.Policy.Sample, sv.Policy.SlowlogUs)
	}
	childTID := ""
	for _, e := range sv.Slowlog.Entries {
		if e.Cmd != "SEARCH" || len(e.Children) == 0 {
			continue
		}
		hops := map[string]bool{}
		for _, h := range e.Hops {
			hops[h.Kind] = true
		}
		c := e.Children[0]
		if hops["queue_wait"] && hops["backend_rtt"] && c.Error == "" &&
			strings.Contains(string(c.Trace), `"probes"`) {
			childTID = fmt.Sprintf("%s/%d", e.TID, c.Span)
			break
		}
	}
	if childTID == "" {
		return fmt.Errorf("router /debug/traces: no stitched SEARCH with router spans and a backend child\n%s", stitched)
	}
	// The same child is fetchable directly over the wire.
	if err := expectHas(c, "TRACE GET "+childTID, "TRACE {"); err != nil {
		return err
	}

	// The router's scrape: every family the router declares, traffic on
	// both shards, breakers closed, bursts seen.
	body, err := get("http://" + httpAddr + "/metrics")
	if err != nil {
		return err
	}
	if err := carries(body, metrics.NewRouterMetrics(nil).Exposition()); err != nil {
		return fmt.Errorf("router: %w", err)
	}
	for _, addr := range bkAddrs {
		ops, ok := scrapeValue(body, fmt.Sprintf("caram_router_backend_ops_total{backend=%q} ", addr))
		if !ok || ops <= 0 {
			return fmt.Errorf("router /metrics: backend %s absorbed no ops (sharding broken?)\n%s", addr, body)
		}
		if !strings.Contains(body, fmt.Sprintf("caram_router_backend_breaker_open{backend=%q} 0", addr)) {
			return fmt.Errorf("router /metrics: breaker not closed for %s\n%s", addr, body)
		}
		if cnt, ok := scrapeValue(body, fmt.Sprintf("caram_router_burst_size_count{backend=%q} ", addr)); !ok || cnt <= 0 {
			return fmt.Errorf("router /metrics: no bursts recorded for %s\n%s", addr, body)
		}
	}

	// Graceful shutdown, router first, then the backends.
	if err := interrupt(rt, "router"); err != nil {
		return err
	}
	for i, bk := range bkProcs {
		if err := interrupt(bk, fmt.Sprint("backend ", i)); err != nil {
			return err
		}
	}
	return nil
}

// serverDeclared lists the families a caram-server run with -data
// declares — the engine families, the log's and its recovery's, the
// process families — the groups server.Exposition binds, here to samplers
// nothing calls: only the declarations are read.
var serverDeclared = metrics.NewRegistry(nil).Exposition(
	metrics.Bind(func() wal.Stats { return wal.Stats{} }, wal.StatsFamilies...),
	metrics.Bind(func() *wal.RecoverResult { return nil }, wal.RecoveryFamilies...))

// carries checks that a scrape carries every family x declares, each
// under its declared # TYPE.
func carries(body string, x metrics.Exposition) error {
	for _, f := range x.Families() {
		if want := "\n# TYPE " + f.Name + " " + string(f.Type) + "\n"; !strings.Contains(body, want) {
			return fmt.Errorf("/metrics missing %q\n%s", want[1:], body)
		}
	}
	return nil
}

// scrapeValue finds the sample whose line starts with prefix and
// returns its value.
func scrapeValue(body, prefix string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// freeAddrs reserves two distinct loopback ports by listening and
// closing; the tiny reuse race is acceptable for a smoke check.
func freeAddrs() (wire, http string, err error) {
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", "", err
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs[0], addrs[1], nil
}

// step is one request and the reply it must draw.
type step struct{ req, want string }

// expect runs steps over c in order.
func expect(c *wire.Client, steps []step) error {
	for _, st := range steps {
		got, err := ask(c, st.req)
		if err != nil {
			return err
		}
		if got != st.want {
			return fmt.Errorf("%s: got %q, want %q", st.req, got, st.want)
		}
	}
	return nil
}

// expectHas asks req over c and requires a reply that starts with
// prefix and contains every part.
func expectHas(c *wire.Client, req, prefix string, parts ...string) error {
	got, err := ask(c, req)
	if err != nil {
		return err
	}
	ok := strings.HasPrefix(got, prefix)
	for _, p := range parts {
		ok = ok && strings.Contains(got, p)
	}
	if !ok {
		return fmt.Errorf("%s: got %q, want %q...%q", req, got, prefix, parts)
	}
	return nil
}

// interrupt sends cmd SIGINT and requires it to exit 0 within 10 s.
func interrupt(cmd *exec.Cmd, name string) error {
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s exited non-zero after SIGINT: %w", name, err)
		}
		return nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		return fmt.Errorf("%s did not exit within 10s of SIGINT", name)
	}
}

// ask sends one request line over c and returns its reply. Until the
// freshly exec'd process accepts, a failed dial — nothing was sent — is
// retried.
func ask(c *wire.Client, req string) (string, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		reply, err := c.Do(req)
		if errors.Is(err, wire.ErrDial) && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if err != nil {
			return "", fmt.Errorf("%s: %w", req, err)
		}
		return reply, nil
	}
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}
