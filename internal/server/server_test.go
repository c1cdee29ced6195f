package server

import (
	"errors"
	"fmt"
	"math/bits"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wire"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	return fuzzServer()
}

// fuzzServer builds the one-engine fixture without a testing.T, so
// fuzz targets can share it. Tracing is attached with a zero slowlog
// threshold (small ring) so fuzzed inputs also stress the trace
// record/admit/recycle path and the SLOWLOG command sees entries.
func fuzzServer() *Server {
	sub := subsystem.New(0)
	sl := caram.MustNew(caram.Config{
		IndexBits: 6,
		RowBits:   4*(1+64+32) + 8,
		KeyBits:   64,
		DataBits:  32,
		Index:     hash.NewMultShift(6),
	})
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		panic(err)
	}
	return New(sub, WithTracing(trace.NewCollector(trace.Config{SampleN: 3, Slowlog: 0, Ring: 8})))
}

// drive sends request lines and returns the response lines.
func drive(t *testing.T, s *Server, reqs ...string) []string {
	t.Helper()
	in := strings.NewReader(strings.Join(reqs, "\n") + "\n")
	var out strings.Builder
	s.Handle(in, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(reqs) {
		t.Fatalf("%d responses for %d requests: %q", len(lines), len(reqs), out.String())
	}
	return lines
}

func TestProtocolBasics(t *testing.T) {
	s := testServer(t)
	resp := drive(t, s,
		"ENGINES",
		"INSERT db dead 42",
		"SEARCH db dead",
		"SEARCH db beef",
		"DELETE db dead",
		"SEARCH db dead",
		"STATS db",
	)
	if resp[0] != "ENGINES db" {
		t.Errorf("ENGINES = %q", resp[0])
	}
	if resp[1] != "OK" {
		t.Errorf("INSERT = %q", resp[1])
	}
	if resp[2] != "HIT 0:0000000000000042" {
		t.Errorf("SEARCH = %q", resp[2])
	}
	if resp[3] != "MISS" {
		t.Errorf("SEARCH miss = %q", resp[3])
	}
	if resp[4] != "OK" {
		t.Errorf("DELETE = %q", resp[4])
	}
	if resp[5] != "MISS" {
		t.Errorf("post-delete SEARCH = %q", resp[5])
	}
	if !strings.HasPrefix(resp[6], "STATS n=0 ") {
		t.Errorf("STATS = %q", resp[6])
	}
}

func TestMaskedSearch(t *testing.T) {
	// Masked search keys need an index generator that ignores the
	// masked bits (the paper's §4 caveat), so this engine hashes on
	// key bits 8..13 and the query masks only the low nibble.
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
	s := New(sub)
	resp := drive(t, s,
		"INSERT db 1234 7",
		"SEARCH db 1230 f", // low nibble masked, hash bits untouched
	)
	if resp[1] != "HIT 0:0000000000000007" {
		t.Errorf("masked SEARCH = %q", resp[1])
	}
}

func TestProtocolErrors(t *testing.T) {
	s := testServer(t)
	resp := drive(t, s,
		"",
		"BOGUS",
		"INSERT db onearg",
		"INSERT nope 1 2",
		"SEARCH nope 1",
		"SEARCH db zz",
		"DELETE db 999",
		"STATS nope",
		"INSERT db 1 2 3 4",
	)
	for i, r := range resp {
		if !strings.HasPrefix(r, "ERR") {
			t.Errorf("request %d: expected ERR, got %q", i, r)
		}
	}
}

func TestWideKeys(t *testing.T) {
	sub := subsystem.New(0)
	sl := caram.MustNew(caram.Config{
		IndexBits: 4,
		RowBits:   2*(1+128+96) + 8,
		KeyBits:   128,
		DataBits:  96,
		Index:     hash.NewMultShift(4),
	})
	if err := sub.AddEngine(&subsystem.Engine{Name: "wide", Main: sl}); err != nil {
		t.Fatal(err)
	}
	s := New(sub)
	resp := drive(t, s,
		"INSERT wide deadbeef:cafef00d 1:2",
		"SEARCH wide deadbeef:cafef00d",
	)
	if resp[1] != "HIT 1:0000000000000002" {
		t.Errorf("wide SEARCH = %q", resp[1])
	}
}

// Real sockets, concurrent clients.
func TestServeOverTCP(t *testing.T) {
	s := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(l) //nolint:errcheck // returns when l closes

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient(t, l.Addr().String())
			for i := 0; i < 50; i++ {
				key := c*1000 + i
				if line, err := client.Do("INSERT db " + hex(key) + " " + hex(key*2)); err != nil || line != "OK" {
					t.Errorf("insert %d: %q %v", key, line, err)
					return
				}
				if line, _ := client.Do("SEARCH db " + hex(key)); !strings.HasPrefix(line, "HIT") {
					t.Errorf("search %d: %q", key, line)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestParseVec(t *testing.T) {
	ok := []struct {
		in     string
		hi, lo uint64
	}{
		{"0", 0, 0},
		{"dead", 0, 0xdead},
		{"DEAD", 0, 0xdead},
		{"ffffffffffffffff", 0, ^uint64(0)},
		{"1:2", 1, 2},
		{"deadbeef:cafef00d", 0xdeadbeef, 0xcafef00d},
		{"ffffffffffffffff:ffffffffffffffff", ^uint64(0), ^uint64(0)},
		{"0000000000000000001", 0, 1}, // leading zeros are value, not width
	}
	for _, tc := range ok {
		v, ok := wire.ParseVec(tc.in)
		if !ok || v.Hi != tc.hi || v.Lo != tc.lo {
			t.Errorf("ParseVec(%q) = %v, %v; want hi=%x lo=%x", tc.in, v, ok, tc.hi, tc.lo)
		}
	}
	bad := []string{
		"",         // empty
		"zz",       // no hex at all
		"12zz",     // valid prefix + garbage (the Sscanf bug)
		"zz12",     // garbage + valid suffix
		"0x12",     // prefix syntax not part of the protocol
		"+1", "-1", // signs
		"1_2",           // underscores
		"1.5",           // decimal point
		":", "1:", ":1", // missing parts
		"1:2:3", "1::2", // extra separators
		"12zz:1", "1:12zz", // garbage in either part
		strings.Repeat("f", 17), // overflows uint64
		"1:" + strings.Repeat("f", 17),
		"١٢", // non-ASCII digits
	}
	for _, in := range bad {
		if v, ok := wire.ParseVec(in); ok {
			t.Errorf("ParseVec(%q) = %v, want rejection", in, v)
		}
	}
}

// TestAppendHex016: the word-at-a-time encoder is fmt's %016x for every
// digit in every position.
func TestAppendHex016(t *testing.T) {
	for i := uint64(0); i < 1<<12; i++ {
		v := bits.RotateLeft64(0x0123456789abcdef, int(i%16)*4) ^ i*0x9e3779b97f4a7c15>>(i%64)
		if got, want := string(appendHex016([]byte("x"), v)), fmt.Sprintf("x%016x", v); got != want {
			t.Fatalf("appendHex016(%#x) = %q, want %q", v, got, want)
		}
	}
}

func TestOversizedLine(t *testing.T) {
	s := testServer(t)
	// A 65 KiB request must draw an explicit error, not a silent
	// connection drop; the following request is not reached (the
	// stream is unrecoverable once the scanner overflows).
	long := "SEARCH db " + strings.Repeat("f", 65*1024)
	in := strings.NewReader("INSERT db 1 2\n" + long + "\nSEARCH db 1\n")
	var out strings.Builder
	s.Handle(in, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d responses: %q", len(lines), out.String())
	}
	if lines[0] != "OK" {
		t.Errorf("first response = %q", lines[0])
	}
	if lines[1] != "ERR line too long" {
		t.Errorf("oversized-line response = %q", lines[1])
	}
}

func TestMSearch(t *testing.T) {
	sub := subsystem.New(0)
	for _, name := range []string{"a", "b"} {
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
	s := New(sub)
	resp := drive(t, s,
		"INSERT a 1 10",
		"INSERT b 2 20",
		"MSEARCH a 1 b 2 a 2 nope 1 b 1",
		"MSEARCH a 1",
		"MSEARCH",
		"MSEARCH a",
		"MSEARCH a 12zz",
	)
	want := "MRESULTS HIT:0:0000000000000010 HIT:0:0000000000000020 MISS ERR:no-engine MISS"
	if resp[2] != want {
		t.Errorf("MSEARCH = %q\n want %q", resp[2], want)
	}
	if resp[3] != "MRESULTS HIT:0:0000000000000010" {
		t.Errorf("single MSEARCH = %q", resp[3])
	}
	for i := 4; i <= 6; i++ {
		if !strings.HasPrefix(resp[i], "ERR") {
			t.Errorf("request %d: expected ERR, got %q", i, resp[i])
		}
	}
}

func hex(v int) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{digits[v%16]}, b...)
		v /= 16
	}
	return string(b)
}

func TestMetricsCommand(t *testing.T) {
	s := testServer(t)
	resp := drive(t, s,
		"METRICS",
		"INSERT db dead 42",
		"SEARCH db dead",
		"SEARCH db beef",
		"MSEARCH db dead db beef",
		"DELETE db dead",
		"DELETE db dead", // second delete errors: record not found
		"SEARCH nope 1",  // unknown engine, counted once per request whatever the verb
		"MINSERT nope 1 0 2",
		"MDELETE nope 1 0",
		"TINSERT nope 2a abc",
		"TSEARCH nope abc",
		"METRICS",
		"METRICS db",
		"METRICS db LATENCY SEARCH",
		"METRICS nope",
		"METRICS db LATENCY",
		"METRICS db LATENCY BOGUS",
		"METRICS db extra junk",
	)
	for i := 7; i < 12; i++ {
		if want := `ERR subsystem: no engine "nope"`; resp[i] != want {
			t.Errorf("%d: %q, want %q", i, resp[i], want)
		}
	}
	if resp[0] != "METRICS engines=1 ops=0 errors=0 unknown=0" {
		t.Errorf("initial METRICS = %q", resp[0])
	}
	// 1 insert + 2 search + 2 msearch slots + 2 delete = 7 ops, 1 error
	// (failed delete); the five unknown-engine requests count separately.
	if resp[12] != "METRICS engines=1 ops=7 errors=1 unknown=5" {
		t.Errorf("summary METRICS = %q", resp[12])
	}
	want := "METRICS engine=db insert=1 insert_err=0 search=2 search_err=0" +
		" delete=2 delete_err=1 msearch=2 msearch_err=0" +
		" n=0 load=0.000 amal=1.000 hits=2 misses=2 spilled=0"
	if resp[13] != want {
		t.Errorf("engine METRICS = %q\n                 want %q", resp[13], want)
	}
	lat := resp[14]
	if !strings.HasPrefix(lat, "METRICS engine=db op=search n=2 err=0 mean_us=") {
		t.Errorf("latency METRICS = %q", lat)
	}
	for _, field := range []string{"p50_us=", "p90_us=", "p99_us=", "max_us="} {
		if !strings.Contains(lat, field) {
			t.Errorf("latency METRICS missing %s: %q", field, lat)
		}
	}
	if !strings.HasPrefix(resp[15], "ERR metrics: no engine") {
		t.Errorf("unknown engine METRICS = %q", resp[15])
	}
	if resp[16] != "ERR usage: METRICS [engine [LATENCY <op>]]" {
		t.Errorf("short LATENCY = %q", resp[16])
	}
	if resp[17] != "ERR metrics: unknown op BOGUS" {
		t.Errorf("bad op = %q", resp[17])
	}
	if resp[18] != "ERR usage: METRICS [engine [LATENCY <op>]]" {
		t.Errorf("extra args = %q", resp[18])
	}
}

func TestMetricsDisabled(t *testing.T) {
	sub := subsystem.New(0)
	sl := caram.MustNew(caram.Config{
		IndexBits: 6,
		RowBits:   4*(1+64+32) + 8,
		KeyBits:   64,
		DataBits:  32,
		Index:     hash.NewMultShift(6),
	})
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		t.Fatal(err)
	}
	s := New(sub, WithoutMetrics())
	if s.met != nil {
		t.Fatal("WithoutMetrics still built a registry")
	}
	resp := drive(t, s, "INSERT db 1 2", "METRICS", "METRICS db")
	if resp[0] != "OK" {
		t.Errorf("INSERT = %q", resp[0])
	}
	for i := 1; i <= 2; i++ {
		if resp[i] != "ERR metrics disabled" {
			t.Errorf("METRICS on disabled server = %q", resp[i])
		}
	}
}

// infiniteRequests feeds "ENGINES\n" forever — the stream a spinning
// read loop would consume without bound.
type infiniteRequests struct{}

func (infiniteRequests) Read(p []byte) (int, error) {
	const line = "ENGINES\n"
	n := 0
	for n+len(line) <= len(p) {
		n += copy(p[n:], line)
	}
	if n == 0 {
		n = copy(p, line)
	}
	return n, nil
}

// failWriter fails every write, like a peer that vanished.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("broken pipe")
}

// TestHandleStopsOnDeadWriter is the dead-connection guard: when the
// client's write side fails, Handle must stop consuming requests
// instead of spinning through an endless stream.
func TestHandleStopsOnDeadWriter(t *testing.T) {
	s := testServer(t)
	w := &failWriter{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handle(infiniteRequests{}, w)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Handle still reading from an infinite stream after its writer died")
	}
	if w.writes != 1 {
		t.Errorf("dead writer got %d writes, want exactly 1", w.writes)
	}
}

// TestServerClose covers the shutdown path: Close stops the accept
// loop (Serve returns ErrServerClosed), tears down live connections,
// drains handlers, and is idempotent; Serve after Close refuses.
func TestServerClose(t *testing.T) {
	s := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	client := newClient(t, l.Addr().String())
	if line, err := client.Do("INSERT db 1 2"); err != nil || line != "OK" {
		t.Fatalf("pre-close request: %q, %v", line, err)
	}

	// A second, idle connection: Close must not hang waiting for its
	// handler (it force-closes the conn to unblock the read loop).
	if line, err := newClient(t, l.Addr().String()).Do("ENGINES"); err != nil || line != "ENGINES db" {
		t.Fatalf("idle connection's first request: %q, %v", line, err)
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain handlers")
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// The live connection was torn down: further requests fail.
	if line, err := client.Do("SEARCH db 1"); err == nil {
		t.Errorf("connection still answering after Close: %q", line)
	}
	// Close is idempotent; Serve after Close refuses.
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(l2); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after Close = %v, want ErrServerClosed", err)
	}
	if _, err := newClient(t, l2.Addr().String()).Do("ENGINES"); !errors.Is(err, wire.ErrDial) {
		t.Errorf("listener left open by refused Serve: %v", err)
	}
}
