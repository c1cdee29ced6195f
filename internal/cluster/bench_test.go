package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"caram/internal/trace"
	"caram/internal/wire"
)

// The PR-8 performance contract (EXPERIMENTS.md has the frozen table):
//
//   - BenchmarkRouterPipelinedSearch/depth8 must be >= 2x the ops/sec
//     of BenchmarkUnpipelinedProxySearch/depth8 on loopback. Depth is
//     the client pipeline depth: how many requests each client writes
//     before reading replies. The naive proxy holds one connection per
//     backend behind a mutex and does one round trip at a time, so it
//     cannot convert depth into wire-level batching; the router's
//     pools coalesce concurrent requests into single writes.
//   - BenchmarkRouterForward must report 0 allocs/op under every
//     collector policy: the dispatch -> pool -> settle path reuses
//     every buffer.

// benchCluster boots two real TCP backends preloaded with benchKeys
// self-validating records, inserted directly (not through the frontend
// under test).
const benchKeys = 128

func benchCluster(b *testing.B) []*testBackend {
	b.Helper()
	bks := []*testBackend{startBackend(b, "db"), startBackend(b, "db")}
	ring, err := NewRing([]string{"b0", "b1"}, DefaultReplicas)
	if err != nil {
		b.Fatal(err)
	}
	for i := range bks {
		var lines []string
		for k := 1; k <= benchKeys; k++ {
			if v, _ := wire.ParseVec(fmt.Sprintf("%x", k)); ring.Owner("db", v) == i {
				lines = append(lines, fmt.Sprintf("INSERT db %x %x", k, k))
			}
		}
		preload(b, bks[i].addr, lines)
	}
	return bks
}

// preload sends lines to addr as one pipelined batch and requires an
// OK for each.
func preload(b *testing.B, addr string, lines []string) {
	burst, calls := batchOf(lines...)
	newClient(b, addr).Submit(burst)
	for i, c := range calls {
		if reply, err := c.Wait(); err != nil || string(reply) != "OK" {
			b.Fatalf("preload %s: %q %v", lines[i], reply, err)
		}
	}
	burst.Release()
}

// driveFrontend hammers addr with concurrent clients, each pipelining
// `depth` SEARCH requests per flush, and validates every reply.
func driveFrontend(b *testing.B, addr string, depth int) {
	reqs := make([]string, benchKeys)
	wants := make([]string, benchKeys)
	for k := 1; k <= benchKeys; k++ {
		reqs[k-1] = fmt.Sprintf("SEARCH db %x", k)
		wants[k-1] = fmt.Sprintf("HIT 0:%016x", k)
	}
	b.SetParallelism(4) // clients = 4 * GOMAXPROCS
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := newClient(b, addr)
		idx, keys, calls := 0, make([]int, 0, depth), make([]wire.Call, 0, depth)
		for {
			burst := wire.NewBatch()
			keys, calls = keys[:0], calls[:0]
			for len(keys) < depth && pb.Next() {
				calls = append(calls, burst.Add(reqs[idx]))
				keys = append(keys, idx)
				idx = (idx + 1) % benchKeys
			}
			if len(keys) == 0 {
				burst.Release()
				return
			}
			client.Submit(burst)
			for i, k := range keys {
				if line, err := calls[i].Wait(); err != nil || string(line) != wants[k] {
					b.Errorf("reply %q %v, want %q", line, err, wants[k])
					return
				}
			}
			burst.Release()
			if len(keys) < depth {
				return
			}
		}
	})
}

func BenchmarkRouterPipelinedSearch(b *testing.B) {
	bks := benchCluster(b)
	rt, _ := testRouter(b, bks, func(cfg *RouterConfig) { cfg.Conns = 4 })
	defer rt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			driveFrontend(b, l.Addr().String(), depth)
		})
	}
}

// BenchmarkDirectServerSearch is the no-router reference: the same
// pipelined clients straight at one caram-server holding all the
// records. The gap between this and the router is the cost of the
// extra network hop; the gap between the router and the naive proxy
// is what the pipelined pools buy back.
func BenchmarkDirectServerSearch(b *testing.B) {
	bk := startBackend(b, "db")
	lines := make([]string, benchKeys)
	for k := range lines {
		lines[k] = fmt.Sprintf("INSERT db %x %x", k+1, k+1)
	}
	preload(b, bk.addr, lines)
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			driveFrontend(b, bk.addr, depth)
		})
	}
}

// naiveProxy is the unpipelined baseline: the same ring routing, but
// one connection per backend behind a mutex and one request/reply
// round trip on the wire at a time.
type naiveProxy struct {
	ring  *Ring
	mus   []sync.Mutex
	conns []net.Conn
	brs   []*bufio.Reader
	l     net.Listener
}

func newNaiveProxy(b *testing.B, bks []*testBackend) *naiveProxy {
	b.Helper()
	ring, err := NewRing([]string{"b0", "b1"}, DefaultReplicas)
	if err != nil {
		b.Fatal(err)
	}
	np := &naiveProxy{ring: ring, mus: make([]sync.Mutex, len(bks))}
	for _, bk := range bks {
		conn, err := net.Dial("tcp", bk.addr)
		if err != nil {
			b.Fatal(err)
		}
		np.conns = append(np.conns, conn)
		np.brs = append(np.brs, bufio.NewReader(conn))
	}
	if np.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			conn, err := np.l.Accept()
			if err != nil {
				return
			}
			go np.handle(conn)
		}
	}()
	return np
}

func (np *naiveProxy) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		// Route exactly like the router: SEARCH db <key>.
		sc := wire.Scan(string(line))
		sc.Next() // SEARCH
		eng, _ := sc.Next()
		key, _ := sc.Next()
		v, ok := wire.ParseVec(key)
		if !ok {
			return
		}
		bk := np.ring.Owner(eng, v)
		np.mus[bk].Lock()
		_, werr := np.conns[bk].Write(line)
		var resp []byte
		if werr == nil {
			resp, werr = np.brs[bk].ReadBytes('\n')
		}
		np.mus[bk].Unlock()
		if werr != nil {
			return
		}
		bw.Write(resp) //nolint:errcheck
		// One round trip at a time also on the client side: the
		// baseline never batches replies.
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (np *naiveProxy) Close() {
	np.l.Close()
	for _, c := range np.conns {
		c.Close()
	}
}

func BenchmarkUnpipelinedProxySearch(b *testing.B) {
	bks := benchCluster(b)
	np := newNaiveProxy(b, bks)
	defer np.Close()
	for _, depth := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			driveFrontend(b, np.l.Addr().String(), depth)
		})
	}
}

// stubBackend answers every line with MISS without allocating, so the
// forward-path measurements below see only the router's own behavior.
func stubBackend(b testing.TB) string {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	miss := []byte("MISS\n")
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := br.ReadSlice('\n'); err != nil {
						return
					}
					if _, err := conn.Write(miss); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// The collector policies the forward path is measured under.
// deployed-flags is what cmd/caram-router builds from its flag defaults
// (-slowlog-us 10000, -trace-sample 0): the configuration every guard
// and benchmark must include, because it is the one production runs.
var forwardCollectors = []struct {
	name string
	cfg  *trace.Config
}{
	{"slowlog-off", &trace.Config{SampleN: 0, Slowlog: -1}},
	{"deployed-flags", &trace.Config{Slowlog: 10 * time.Millisecond}},
}

// stubRoundTrip serves a router over one stub backend (one connection,
// HealthInterval 0: watcher off, nothing ticks) and returns a function
// that sends req through a wire.Client and waits for its one reply,
// allocation-free on the client side too — AllocsPerRun counts mallocs
// process-wide. A nil cfg leaves RouterConfig.Tracing unset: the
// router's own idle collector.
func stubRoundTrip(tb testing.TB, cfg *trace.Config, req string) func() {
	tb.Helper()
	rc := RouterConfig{Backends: []Backend{{Label: "b0", Addr: stubBackend(tb)}}, Conns: 1, Retries: 2}
	if cfg != nil {
		rc.Tracing = trace.NewCollector(*cfg)
	}
	rt, err := NewRouter(rc)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rt.Close() })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go rt.Serve(l) //nolint:errcheck
	client := newClient(tb, l.Addr().String())
	roundTrip := func() {
		c := wire.NewBatch().Add(req)
		client.Submit(c.Batch())
		if _, err := c.Wait(); err != nil {
			tb.Fatal(err)
		}
		c.Release()
	}
	for i := 0; i < 200; i++ { // warm every pool and buffer
		roundTrip()
	}
	return roundTrip
}

// TestRouterForwardPathAllocs is the CI guard for the same property
// the benchmark freezes: steady-state forwarding allocates nothing —
// with an idle collector and with the deployed flags, where the slowlog
// is on and every request is a candidate. MSEARCH
// (split, one line built per backend, slots reassembled) is held to
// the same zero.
func TestRouterForwardPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds allocate in sync.Pool by design; make alloc-guard runs this without -race")
	}
	for _, col := range forwardCollectors {
		for _, req := range []string{"SEARCH db 5", "MSEARCH db 5 db 6 db 7"} {
			t.Run(col.name+"/"+req[:strings.IndexByte(req, ' ')], func(t *testing.T) {
				if avg := testing.AllocsPerRun(300, stubRoundTrip(t, col.cfg, req)); avg >= 1 {
					t.Errorf("forward path allocates %.2f allocs/op, want 0", avg)
				}
			})
		}
	}
}

// TestRouterUntracedZeroAlloc is the PR-9 CI guard: a router given no
// collector runs an idle one (sampling off, slowlog off), which must
// leave the forward path allocation-free — the dispatch stamp and the
// sampler's count are all it adds.
func TestRouterUntracedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector builds allocate in sync.Pool by design; make alloc-guard runs this without -race")
	}
	if avg := testing.AllocsPerRun(300, stubRoundTrip(t, nil, "SEARCH db 5")); avg >= 1 {
		t.Errorf("forward path with idle collector allocates %.2f allocs/op, want 0", avg)
	}
}

// BenchmarkRouterForward freezes the zero-alloc forward path: one
// client, stub backend, alloc accounting on, once per collector policy
// so a number measured with the slowlog off can never again be quoted
// for the deployed router. Expect 0 allocs/op in both.
func BenchmarkRouterForward(b *testing.B) {
	for _, col := range forwardCollectors {
		b.Run(col.name, func(b *testing.B) {
			roundTrip := stubRoundTrip(b, col.cfg, "SEARCH db 5")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}
