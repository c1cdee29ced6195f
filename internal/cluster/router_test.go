package cluster

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/metrics"
	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wire"
)

// testBackend is one live in-process caram-server on a loopback
// listener, with the same fixed geometry the server package's own
// fixtures use (deterministic MultShift hashing).
type testBackend struct {
	srv  *server.Server
	addr string
	col  *trace.Collector // startTracedBackend only
}

func exactEngine(t testing.TB, sub *subsystem.Subsystem, name string) {
	t.Helper()
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

// startBackend boots a real server with the named exact engines and
// serves it over TCP; the listener address is its identity for pools.
func startBackend(t testing.TB, engines ...string) *testBackend {
	t.Helper()
	sub := subsystem.New(0)
	for _, name := range engines {
		exactEngine(t, sub, name)
	}
	srv := server.New(sub)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns when the server closes
	t.Cleanup(func() { srv.Close() })
	return &testBackend{srv: srv, addr: l.Addr().String()}
}

// testRouter wires a router over the given backends with stable ring
// labels b0, b1, ... — ring assignments must not depend on the
// ephemeral ports the test OS hands out.
func testRouter(t testing.TB, bks []*testBackend, mod func(*RouterConfig)) (*Router, *metrics.RouterMetrics) {
	t.Helper()
	backends := make([]Backend, len(bks))
	for i, b := range bks {
		backends[i] = Backend{Label: fmt.Sprintf("b%d", i), Addr: b.addr}
	}
	cfg := RouterConfig{
		Backends:       backends,
		BreakerBackoff: 50 * time.Millisecond,
		Retries:        2,
	}
	if mod != nil {
		mod(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt, rt.Metrics()
}

// rdrive runs request lines through the router's handler and returns
// the reply lines, one per request — the cluster twin of the server
// package's drive helper.
func rdrive(t testing.TB, rt *Router, reqs ...string) []string {
	t.Helper()
	in := strings.NewReader(strings.Join(reqs, "\n") + "\n")
	var out strings.Builder
	rt.Handle(in, &out)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(reqs) {
		t.Fatalf("%d responses for %d requests: %q", len(lines), len(reqs), out.String())
	}
	return lines
}

// newClient is a wire.Client to addr, closed on cleanup.
func newClient(t testing.TB, addr string) *wire.Client {
	c := wire.NewClient(addr, wire.ClientConfig{})
	t.Cleanup(c.Close)
	return c
}

// batchOf builds one batch of the given request lines.
func batchOf(lines ...string) (*wire.Batch, []wire.Call) {
	b := wire.NewBatch()
	calls := make([]wire.Call, len(lines))
	for i, line := range lines {
		calls[i] = b.Add(line)
	}
	return b, calls
}

// TestRouterTransparencyDifferential is the protocol contract: for
// operations owned by a single backend — every key op, every usage
// error, every malformed line — the router's reply must be
// byte-identical to a direct server's for the same session. (Scatter
// aggregates like STATS are covered by their own semantic tests; they
// summarize N backends and legitimately differ from one.) That holds
// for a request the client annotated with *TID as well — it routes by
// its inner verb — and on a router that tags every forward itself,
// which must not tag such a line twice.
func TestRouterTransparencyDifferential(t *testing.T) {
	script := []string{
		"INSERT db dead 42",
		"INSERT db beef 43",
		"INSERT db f00d 44",
		"INSERT db deadbeef:cafe 45",
		"SEARCH db dead",
		"SEARCH db 0:dead", // same key, different spelling: same owner
		"SEARCH db beef",
		"SEARCH db f00d",
		"SEARCH db deadbeef:cafe",
		"SEARCH db 404404",
		"MSEARCH db dead db beef db 404404 nope dead",
		"DELETE db beef",
		"SEARCH db beef",
		"DELETE db beef",
		// Error surfaces: the backend's grammar must render these, so
		// they come back byte-identical to a direct connection.
		"",
		"BOGUS",
		"bogus lowercase",
		"INSERT db onearg",
		"INSERT nope 1 2",
		"SEARCH nope 1",
		"SEARCH db zz",
		"SEARCH db 1 2 3",
		"DELETE db",
		"MSEARCH",
		"MSEARCH db",
		"MSEARCH db dead db", // odd arity
		"MSEARCH db zz",      // bad hex: nothing executes anywhere
		"STATS",
		"STATS db extra",
		"STATS nope",
		"CREATE ENGINE",
		"CREATE ENGINE x TYPE bogus",
		"DROP ENGINE nope",
		"EXPLAIN",
		"EXPLAIN SEARCH db zz",
		"HEALTH db BOGUS",
		"HEALTH nope",
		"TSEARCH",
		"MINSERT db 1",
		// Client-annotated requests: keyed ops reach the key's owner (an
		// untagged SEARCH sees a tagged INSERT and the reverse), MSEARCH
		// splits per owner, scatter verbs scatter.
		"*TID 1f/1 INSERT db a1 51",
		"*tid 1f/2 insert db a2 52",
		"*TID 1f/3 INSERT db a3 53",
		"*TID 1f/4 INSERT db a4 54",
		"SEARCH db a1",
		"SEARCH db a2",
		"SEARCH db a3",
		"SEARCH db a4",
		"*TID 2a/1 SEARCH db dead",
		"*tid 2a/2 search db 0:dead",
		"*TID 2a/3 SEARCH db f00d",
		"*TID 2a/4 SEARCH db a4",
		"*TID 2a/5 SEARCH db 404404",
		"*TID 2a/6 SEARCH db zz",
		"*TID 3b/1 MSEARCH db dead db a1 db a2 db a3 db a4 db 404404 nope dead",
		"*tid 3b/2 msearch db a4 db f00d",
		"*TID 3b/3 MSEARCH db zz",
		"*TID 4c/1 DELETE db a1",
		"*tid 4c/2 delete db a2",
		"SEARCH db a1",
		"SEARCH db a2",
		"*TID 4c/3 DELETE db a1",
		"*TID 5d/1 ENGINES",
		"*tid 5d/2 health",
		"*TID 5d/3 BOGUS",
		// Malformed annotations: the backend's own ERR, never a second tag.
		"*TID zz SEARCH db dead",
		"*FOO SEARCH db dead",
		"*TID 1f/1",
		"*TID 1f/1 *TID 2a/2 SEARCH db dead",
	}

	for name, tracing := range map[string]*trace.Config{
		"untraced":              nil,
		"tagging every forward": {SampleN: 1, Slowlog: -1, Ring: 64},
	} {
		t.Run(name, func(t *testing.T) {
			direct := server.New(func() *subsystem.Subsystem {
				sub := subsystem.New(0)
				exactEngine(t, sub, "db")
				return sub
			}())
			t.Cleanup(func() { direct.Close() })

			rt, _ := testRouter(t, []*testBackend{
				startBackend(t, "db"),
				startBackend(t, "db"),
				startBackend(t, "db"),
			}, func(cfg *RouterConfig) {
				if tracing != nil {
					cfg.Tracing = trace.NewCollector(*tracing)
				}
			})

			got := rdrive(t, rt, script...)
			for i, req := range script {
				want := direct.Exec(req)
				if got[i] != want {
					t.Errorf("request %q:\n  router %q\n  direct %q", req, got[i], want)
				}
			}
		})
	}
}

// TestRouterSingleOwnerRows walks the verb table: every row the router
// places on a single backend (Keyed, Home) must answer through a
// 3-backend cluster exactly as a direct server does — bare, in lower
// case and *TID-tagged. A new single-owner verb is covered by adding its
// row and a session here; the test fails until it has one.
func TestRouterSingleOwnerRows(t *testing.T) {
	setup := []string{
		"CREATE ENGINE ip TYPE lpm INDEXBITS 6 SLOTS 8",
		"CREATE ENGINE tri TYPE trigram INDEXBITS 6",
		"INSERT db 51 1",
		"INSERT db 52 2",
		"MINSERT ip a0000000 ffffff 8",
		"TINSERT tri 2a the quick fox",
	}
	sessions := map[wire.ID][]string{
		wire.Search:  {"SEARCH db 51", "search db 0:52", "*TID 9/1 SEARCH db 51", "SEARCH db 404", "SEARCH ip a0123456", "*tid 9/2 search ip a0123456 ff"},
		wire.Insert:  {"INSERT db 61 1", "insert db 62 2", "*TID 9/1 INSERT db 63 3", "SEARCH db 62", "SEARCH db 63", "INSERT tri 1 1"},
		wire.Delete:  {"DELETE db 51", "delete db 51", "*TID 9/1 DELETE db 52", "SEARCH db 52", "DELETE nope 1"},
		wire.TSearch: {"TSEARCH tri the quick fox", "tsearch tri nothing  here", "*TID 9/1 TSEARCH tri the quick fox", "TSEARCH db x"},
		wire.TInsert: {"TINSERT tri 7 lazy dog", "tinsert tri 8 lazy cat", "*TID 9/1 TINSERT tri 9 lazy  eel", "TSEARCH tri lazy  eel", "TINSERT tri zz x"},
		wire.MInsert: {"MINSERT ip a0b00000 ffff 16", "minsert ip a0b0c000 ff 24", "*TID 9/1 MINSERT ip a0b0c0d0 f 28", "SEARCH ip a0b0c0d1", "MINSERT db 1 1 1"},
		wire.MDelete: {"MDELETE ip a0b0c0d0 f", "mdelete ip a0b0c000 ff", "*TID 9/1 MDELETE ip a0b00000 ffff", "SEARCH ip a0b0c0d1", "MDELETE ip zz ff"},
		wire.Explain: {"EXPLAIN SEARCH db 61", "explain search db 404", "*TID 9/1 EXPLAIN SEARCH db 61", "EXPLAIN SEARCH ip a0123456", "EXPLAIN SEARCH ip a0123456 ff"},
	}
	direct := server.New(func() *subsystem.Subsystem {
		sub := subsystem.New(0)
		exactEngine(t, sub, "db")
		return sub
	}())
	t.Cleanup(func() { direct.Close() })
	rt, _ := testRouter(t, []*testBackend{startBackend(t, "db"), startBackend(t, "db"), startBackend(t, "db")}, nil)

	same := func(reqs []string) {
		t.Helper()
		for i, got := range rdrive(t, rt, reqs...) {
			if want := direct.Exec(reqs[i]); got != want {
				t.Errorf("request %q:\n  router %q\n  direct %q", reqs[i], got, want)
			}
		}
	}
	same(setup)
	for i := range wire.Table() {
		v := &wire.Table()[i]
		if v.Place != wire.Keyed && v.Place != wire.Home {
			continue
		}
		reqs := sessions[v.ID]
		var head wire.Request
		if len(reqs) > 0 {
			wire.Parse(&head, reqs[0])
		}
		if head.Verb != v {
			t.Errorf("single-owner verb %s has no session in this test: add one", v.Name)
			continue
		}
		same(reqs)
	}
}

// TestRouterShardsKeys proves the tentpole actually shards: a batch of
// inserted keys must land on more than one backend, and each backend
// must hold exactly the keys the ring assigns it.
func TestRouterShardsKeys(t *testing.T) {
	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, rm := testRouter(t, bks, nil)

	const n = 64
	reqs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, fmt.Sprintf("INSERT db %x %x", i*2654435761, i))
	}
	for i, r := range rdrive(t, rt, reqs...) {
		if r != "OK" {
			t.Fatalf("%s => %q", reqs[i], r)
		}
	}
	counts := make([]int, len(bks))
	for i := 0; i < n; i++ {
		key, _ := wire.ParseVec(fmt.Sprintf("%x", i*2654435761))
		counts[rt.Ring().Owner("db", key)]++
	}
	for b, bk := range bks {
		stats := bk.srv.Exec("STATS db")
		want := fmt.Sprintf("STATS n=%d ", counts[b])
		if !strings.HasPrefix(stats, want) {
			t.Errorf("backend %d: %q, want prefix %q", b, stats, want)
		}
		if counts[b] == 0 {
			t.Errorf("backend %d owns no keys out of %d — not sharded", b, n)
		}
		if rm.Backend(b).Ops() == 0 {
			t.Errorf("backend %d: zero ops recorded", b)
		}
	}
}

// TestRouterPinnedTyped: a typed engine created through the router
// pins to its home backend — rules and queries all land there, so
// longest-prefix semantics survive (they would break if rules were
// key-sharded) — and DROP unpins. Byte-for-byte differential against
// a direct server running the same session.
func TestRouterPinnedTyped(t *testing.T) {
	script := []string{
		"CREATE ENGINE ip TYPE lpm INDEXBITS 6 SLOTS 8",
		"MINSERT ip a0000000 ffffff 8", // 10.../8 (low 24 bits don't-care)
		"MINSERT ip a0b00000 ffff 16",  // 10.11../16
		"MINSERT ip a0b0c000 ff 24",    // 10.11.12../24
		"SEARCH ip a0b0c0d0",           // /24 wins
		"SEARCH ip a0b01234",           // /16 wins
		"SEARCH ip a0123456",           // /8 wins
		"SEARCH ip ff000000",           // no rule
		"MDELETE ip a0b00000 ffff",
		"SEARCH ip a0b01234", // falls back to /8
		"STATS ip",
		"DROP ENGINE ip",
		"SEARCH ip a0123456",
	}
	direct := server.New(subsystem.New(0))
	t.Cleanup(func() { direct.Close() })

	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, _ := testRouter(t, bks, nil)

	got := rdrive(t, rt, script[:len(script)-2]...) // everything before DROP
	for i, req := range script[:len(script)-2] {
		if want := direct.Exec(req); got[i] != want {
			t.Errorf("request %q:\n  router %q\n  direct %q", req, got[i], want)
		}
	}
	if !rt.Pinned("ip") {
		t.Fatal("typed engine not pinned after CREATE")
	}
	home := rt.Ring().OwnerEngine("ip")
	for b, bk := range bks {
		has := strings.Contains(bk.srv.Exec("ENGINES"), "ip")
		if has != (b == home) {
			t.Errorf("backend %d has ip=%v, home=%d", b, has, home)
		}
	}
	for i, req := range script[len(script)-2:] {
		if want, g := direct.Exec(req), rdrive(t, rt, req)[0]; g != want {
			t.Errorf("request %q:\n  router %q\n  direct %q", script[len(script)-2+i], g, want)
		}
	}
	if rt.Pinned("ip") {
		t.Error("engine still pinned after DROP")
	}
}

// TestRouterAggregates covers the scatter merges: STATS sums counts
// across shards, ENGINES unions rosters, HEALTH reports per-engine
// worst states, and the router answers bare METRICS itself.
func TestRouterAggregates(t *testing.T) {
	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, _ := testRouter(t, bks, nil)

	var reqs []string
	for i := 0; i < 32; i++ {
		reqs = append(reqs, fmt.Sprintf("INSERT db %x %x", i*40503+1, i))
	}
	reqs = append(reqs,
		"SEARCH db 1",    // one hit (the i=0 insert)...
		"SEARCH db eeee", // ...and one miss, so hits/misses aggregate visibly
		"STATS db",
		"ENGINES",
		"HEALTH",
		"HEALTH db",
		"METRICS",
	)
	resp := rdrive(t, rt, reqs...)
	n := len(resp)

	stats := resp[n-5]
	if !strings.HasPrefix(stats, "STATS n=32 ") {
		t.Errorf("aggregate STATS = %q, want n=32", stats)
	}
	if !strings.Contains(stats, " hits=1 ") && !strings.HasSuffix(stats, "misses=1") {
		t.Errorf("aggregate STATS lost lookup counters: %q", stats)
	}
	if resp[n-4] != "ENGINES db" {
		t.Errorf("ENGINES union = %q", resp[n-4])
	}
	if resp[n-3] != "HEALTH db=healthy" {
		t.Errorf("HEALTH roster = %q", resp[n-3])
	}
	if !strings.HasPrefix(resp[n-2], "HEALTH engine=db state=healthy ") {
		t.Errorf("HEALTH engine merge = %q", resp[n-2])
	}
	if !strings.HasPrefix(resp[n-1], "METRICS backends=2 ops=") {
		t.Errorf("router METRICS = %q", resp[n-1])
	}

	// The aggregate count must equal the sum of the shards' counts.
	var sum int
	for _, bk := range bks {
		var bn int
		if _, err := fmt.Sscanf(bk.srv.Exec("STATS db"), "STATS n=%d", &bn); err != nil {
			t.Fatal(err)
		}
		sum += bn
	}
	if sum != 32 {
		t.Errorf("shard counts sum to %d, want 32", sum)
	}
}

// TestRouterMaskedSearchScatters: a masked probe on a sharded engine
// can match on any shard, so the router must ask all of them.
func TestRouterMaskedSearchScatters(t *testing.T) {
	// BitSelect on bits 8..13 ignores the low byte, so masking the low
	// nibble is still answerable (the server's own masked fixture).
	mk := func() *testBackend {
		sub := subsystem.New(0)
		sl := caram.MustNew(caram.Config{
			IndexBits: 6,
			RowBits:   4*(1+64+32) + 8,
			KeyBits:   64,
			DataBits:  32,
			Index:     hash.NewBitSelect([]int{8, 9, 10, 11, 12, 13}),
		})
		if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
			t.Fatal(err)
		}
		srv := server.New(sub)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l) //nolint:errcheck
		t.Cleanup(func() { srv.Close() })
		return &testBackend{srv: srv, addr: l.Addr().String()}
	}
	bks := []*testBackend{mk(), mk()}
	rt, _ := testRouter(t, bks, nil)

	// Place one record on each backend (pick keys by ring ownership).
	keyFor := func(b int) string {
		for i := 1; i < 1<<16; i++ {
			k := fmt.Sprintf("%x", i<<4) // low nibble zero
			v, _ := wire.ParseVec(k)
			if rt.Ring().Owner("db", v) == b {
				return k
			}
		}
		t.Fatal("no key found")
		return ""
	}
	k0, k1 := keyFor(0), keyFor(1)
	resp := rdrive(t, rt,
		"INSERT db "+k0+" aa",
		"INSERT db "+k1+" bb",
		"SEARCH db "+k0+" f", // masked: must find the record wherever it lives
		"SEARCH db "+k1+" f",
	)
	if resp[2] != "HIT 0:00000000000000aa" {
		t.Errorf("masked search owner-0 key = %q", resp[2])
	}
	if resp[3] != "HIT 0:00000000000000bb" {
		t.Errorf("masked search owner-1 key = %q", resp[3])
	}
}

// TestRouterBackendDownSheds: with one backend dead and its breaker
// open, its keys shed with "ERR unavailable" (slots:
// "ERR:unavailable") while the surviving backend keeps answering.
func TestRouterBackendDownSheds(t *testing.T) {
	bks := []*testBackend{startBackend(t, "db"), startBackend(t, "db")}
	rt, rm := testRouter(t, bks, func(cfg *RouterConfig) {
		cfg.Retries = 1
		cfg.BreakerThreshold = 1
		cfg.BreakerBackoff = time.Minute // stays open for the whole test
	})

	// One key per backend, inserted while both are up.
	keyFor := func(b int) string {
		for i := 1; ; i++ {
			k := fmt.Sprintf("%x", i)
			v, _ := wire.ParseVec(k)
			if rt.Ring().Owner("db", v) == b {
				return k
			}
		}
	}
	k0, k1 := keyFor(0), keyFor(1)
	for i, r := range rdrive(t, rt, "INSERT db "+k0+" aa", "INSERT db "+k1+" bb") {
		if r != "OK" {
			t.Fatalf("insert %d: %q", i, r)
		}
	}

	bks[1].srv.Close()
	// Drive searches until backend 1's breaker trips (first failures
	// surface as ERR while the connection death is being discovered).
	deadline := time.Now().Add(5 * time.Second)
	for !rt.Pool(1).BreakerOpen() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened")
		}
		rdrive(t, rt, "SEARCH db "+k1)
	}

	resp := rdrive(t, rt,
		"SEARCH db "+k0,
		"SEARCH db "+k1,
		"MSEARCH db "+k0+" db "+k1,
	)
	if resp[0] != "HIT 0:00000000000000aa" {
		t.Errorf("surviving backend's key = %q", resp[0])
	}
	if resp[1] != "ERR unavailable" {
		t.Errorf("dead backend's key = %q, want ERR unavailable", resp[1])
	}
	if resp[2] != "MRESULTS HIT:0:00000000000000aa ERR:unavailable" {
		t.Errorf("MSEARCH across dead backend = %q", resp[2])
	}
	if rm.Backend(1).Errs() == 0 {
		t.Error("no errors recorded against the dead backend")
	}
	if !rm.Backend(1).BreakerOpen() {
		t.Error("breaker gauge not raised")
	}
}

// routerGoldenFixture builds the deterministic 2-backend cluster the
// golden session replays against: fixed labels, fixed engines, fixed
// geometry — only the TCP ports are ephemeral, and they are not
// routing inputs.
func routerGoldenFixture(t *testing.T) *Router {
	t.Helper()
	bks := []*testBackend{startBackend(t, "db", "aux"), startBackend(t, "db", "aux")}
	rt, _ := testRouter(t, bks, nil)
	return rt
}

// TestRouterGoldenSession replays testdata/router_session.script
// through a live 2-backend cluster and requires byte-exact output —
// the router's compatibility contract, including its scatter merges.
// Regenerate with -update after a deliberate change, and review.
func TestRouterGoldenSession(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "router_session.script"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	routerGoldenFixture(t).Handle(bytes.NewReader(script), &out)

	goldenPath := filepath.Join("testdata", "router_session.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	reqs := strings.Split(strings.TrimRight(string(script), "\n"), "\n")
	got := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		g, w, r := "<missing>", "<missing>", "<eof>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(reqs) {
			r = reqs[i]
		}
		if g != w {
			t.Errorf("line %d: request %q\n  got  %s\n  want %s", i+1, r, g, w)
		}
	}
	if !t.Failed() {
		t.Fatalf("outputs differ only in trailing bytes: got %q, want %q", out.String(), string(want))
	}
}

// TestRouterGoldenDeterministic guards the golden's premise: two
// replays over two fresh clusters must produce identical bytes even
// though ports, pool scheduling, and burst boundaries all differ.
func TestRouterGoldenDeterministic(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "router_session.script"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	routerGoldenFixture(t).Handle(bytes.NewReader(script), &a)
	routerGoldenFixture(t).Handle(bytes.NewReader(script), &b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two replays of the same session differ")
	}
	if a.Len() == 0 || !strings.HasSuffix(a.String(), "\n") {
		t.Fatalf("malformed session output %q", a.String())
	}
}
