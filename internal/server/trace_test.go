package server

import (
	"bytes"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"caram/internal/trace"
)

// tracedServer builds the one-engine fixture with the given trace
// policy attached (threshold 0 admits any request with nonzero
// latency to the slowlog).
func tracedServer(cfg trace.Config) (*Server, *trace.Collector) {
	col := trace.NewCollector(cfg)
	return allocServer(WithTracing(col)), col
}

// TestPipelinedBurstAttribution is the regression test for per-command
// trace stamps: when a client pipelines a burst that Handle answers
// with one flush, every member must still get its own trace with its
// own begin/end stamps — not one trace (or one timestamp) for the whole
// burst.
func TestPipelinedBurstAttribution(t *testing.T) {
	s, col := tracedServer(trace.Config{Slowlog: 0, Ring: 16})
	burst := []string{
		"INSERT db dead 42",
		"SEARCH db dead",
		"SEARCH db f00d",
		"STATS db",
		"DELETE db dead",
	}
	in := strings.NewReader(strings.Join(burst, "\n") + "\n")
	var out strings.Builder
	s.Handle(in, &out)
	if got := len(strings.Split(strings.TrimSpace(out.String()), "\n")); got != len(burst) {
		t.Fatalf("%d replies for %d requests", got, len(burst))
	}

	entries := col.Slow().Snapshot(nil, 0)
	if len(entries) != len(burst) {
		t.Fatalf("slowlog retained %d traces for a %d-request burst", len(entries), len(burst))
	}
	// Snapshot is newest-first; walk oldest-first to match the burst.
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	wantCmd := []string{"INSERT", "SEARCH", "SEARCH", "STATS", "DELETE"}
	wantKey := []string{"dead", "dead", "f00d", "", "dead"}
	for i, e := range entries {
		if e.Cmd != wantCmd[i] {
			t.Errorf("trace %d: cmd %q, want %q", i, e.Cmd, wantCmd[i])
		}
		if e.Key != wantKey[i] {
			t.Errorf("trace %d: key %q, want %q", i, e.Key, wantKey[i])
		}
		if e.Dur <= 0 {
			t.Errorf("trace %d: no wall latency recorded", i)
		}
		if i > 0 {
			// Per-command stamps: each member of the burst begins after
			// the previous one ended. A single per-burst stamp would
			// make every Begin identical.
			prev := entries[i-1]
			if !e.Begin.After(prev.Begin) {
				t.Errorf("trace %d begins at %v, not after trace %d at %v — burst members share a stamp",
					i, e.Begin, i-1, prev.Begin)
			}
			if e.Begin.Before(prev.Begin.Add(prev.Dur)) {
				t.Errorf("trace %d begins inside trace %d's window", i, i-1)
			}
		}
	}
	// The search traces carry their probe chains and results.
	hit := entries[1]
	if hit.Result != "HIT" || !hit.Found || hit.Rows < 1 {
		t.Fatalf("SEARCH hit trace: %+v", hit)
	}
	probes := 0
	hit.ProbeEvents(func(trace.Event) { probes++ })
	if probes == 0 {
		t.Fatal("SEARCH hit trace has no probe events")
	}
	if miss := entries[2]; miss.Result != "MISS" || miss.Found {
		t.Fatalf("SEARCH miss trace: %+v", miss)
	}
}

func TestSlowlogWire(t *testing.T) {
	s, _ := tracedServer(trace.Config{Slowlog: 0, Ring: 16})
	if got := s.Exec("INSERT db dead 42"); got != "OK" {
		t.Fatalf("INSERT: %q", got)
	}
	if got := s.Exec("SEARCH db dead"); got != "HIT 0:0000000000000042" {
		t.Fatalf("SEARCH: %q", got)
	}
	if got := s.Exec("SLOWLOG LEN"); got != "SLOWLOG len=2" {
		t.Fatalf("SLOWLOG LEN: %q", got)
	}
	// The LEN request itself was admitted after its reply, so the newest
	// entry now is the LEN command.
	got := s.Exec("SLOWLOG GET 1")
	if !strings.HasPrefix(got, "SLOWLOG n=1 id=3 ") || !strings.Contains(got, " cmd=SLOWLOG ") {
		t.Fatalf("SLOWLOG GET 1: %q", got)
	}
	got = s.Exec("SLOWLOG GET")
	if !strings.HasPrefix(got, "SLOWLOG n=4 ") ||
		!strings.Contains(got, " cmd=SEARCH engine=db key=dead result=HIT rows=1") ||
		!strings.Contains(got, " cmd=INSERT engine=db key=dead result=OK ") {
		t.Fatalf("SLOWLOG GET: %q", got)
	}
	if got := s.Exec("SLOWLOG GET 0"); got != "SLOWLOG n=0" {
		t.Fatalf("SLOWLOG GET 0: %q", got)
	}
	if got := s.Exec("SLOWLOG RESET"); got != "OK" {
		t.Fatalf("SLOWLOG RESET: %q", got)
	}
	// The RESET itself is admitted right after its reply is built.
	if got := s.Exec("SLOWLOG LEN"); got != "SLOWLOG len=1" {
		t.Fatalf("SLOWLOG LEN after RESET: %q", got)
	}
	const usage = "ERR usage: SLOWLOG GET [n] | SLOWLOG LEN | SLOWLOG RESET"
	for _, bad := range []string{"SLOWLOG", "SLOWLOG BOGUS", "SLOWLOG GET x", "SLOWLOG GET -1", "SLOWLOG GET 1 2", "SLOWLOG LEN extra", "SLOWLOG RESET extra"} {
		if got := s.Exec(bad); got != usage {
			t.Fatalf("%s: %q, want usage", bad, got)
		}
	}
}

func TestSlowlogRequiresTracing(t *testing.T) {
	s := allocServer() // no WithTracing
	for _, req := range []string{"SLOWLOG LEN", "SLOWLOG GET", "SLOWLOG RESET"} {
		if got := s.Exec(req); got != "ERR tracing disabled" {
			t.Fatalf("%s on untraced server: %q", req, got)
		}
	}
}

// TestExplain pins the deterministic EXPLAIN output, including the full
// probe chain of a displaced key: keys 3, 2c, 73, 76 and 80 all hash to
// bucket 1 under MultShift(6); with 4 slots per bucket the fifth key
// spills to bucket 2 (displacement 1).
func TestExplain(t *testing.T) {
	s := allocServer() // EXPLAIN works without WithTracing
	for _, ins := range []string{"3 a1", "2c a2", "73 a3", "76 a4", "80 a5"} {
		if got := s.Exec("INSERT db " + ins); got != "OK" {
			t.Fatalf("INSERT db %s: %q", ins, got)
		}
	}
	got := s.Exec("EXPLAIN SEARCH db 80")
	for _, want := range []string{
		"EXPLAIN engine=db key=80 home=1 reach=1 rows=2 ",
		" slots=5 matches=1 ",
		" expected=1.200 ", // (4 records at d=0, 1 at d=1): (4*1+2)/5
		" result=HIT ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("EXPLAIN db 80 missing %q:\n%s", want, got)
		}
	}
	if !strings.HasSuffix(got, " chain=[b1:d0:s4:m0 b2:d1:s1:m1:ovf:hit]") {
		t.Errorf("EXPLAIN db 80 does not end in its probe chain:\n%s", got)
	}
	// An undisplaced key resolves in one probe.
	got = s.Exec("EXPLAIN SEARCH db 3")
	if !strings.Contains(got, " home=1 reach=1 rows=1 ") || !strings.HasSuffix(got, " chain=[b1:d0:s4:m1:hit]") {
		t.Errorf("EXPLAIN db 3: %s", got)
	}
	// A miss still shows the probed home bucket.
	got = s.Exec("EXPLAIN SEARCH db f00d")
	if !strings.Contains(got, " result=MISS ") || !strings.Contains(got, " rows=1 ") {
		t.Errorf("EXPLAIN db f00d: %s", got)
	}
	// Errors and usage.
	if got := s.Exec("EXPLAIN SEARCH nope 1"); got != `ERR subsystem: no engine "nope"` {
		t.Errorf("EXPLAIN unknown engine: %q", got)
	}
	const usage = "ERR usage: EXPLAIN SEARCH <engine> <key> [mask]"
	for _, bad := range []string{"EXPLAIN", "EXPLAIN SEARCH", "EXPLAIN SEARCH db", "EXPLAIN INSERT db 1", "EXPLAIN SEARCH db 1 2 3"} {
		if got := s.Exec(bad); got != usage {
			t.Errorf("%s: %q, want usage", bad, got)
		}
	}
	if got := s.Exec("EXPLAIN SEARCH db 12zz"); got != `ERR bad hex "12zz"` {
		t.Errorf("EXPLAIN bad hex: %q", got)
	}
	// EXPLAIN charges the lookup like a real search: stats moved.
	if got := s.Exec("STATS db"); !strings.Contains(got, "hits=") {
		t.Fatalf("STATS: %q", got)
	}
}

// TestExplainExpectedDuplicated: on an lpm engine, expected= charges each
// duplicated copy its displacement from the home it was placed from. At
// INDEXBITS 6 the /12's sixteen copies each sit in their own home and
// the /24 in its one, so the model is 1.000, the one row the lookup
// reads — not a displacement from the bucket the prefix's address alone
// hashes to.
func TestExplainExpectedDuplicated(t *testing.T) {
	s := allocServer()
	for _, cmd := range []string{
		"CREATE ENGINE ip TYPE lpm INDEXBITS 6",
		"MINSERT ip a000000 fffff c", // 10.0.0.0/12
		"MINSERT ip a000000 ff 18",   // 10.0.0.0/24
	} {
		if got := s.Exec(cmd); got != "OK" {
			t.Fatalf("%s: %q", cmd, got)
		}
	}
	got := s.Exec("EXPLAIN SEARCH ip a000001")
	if !strings.Contains(got, " rows=1 ") || !strings.Contains(got, " expected=1.000 ") || !strings.Contains(got, " result=HIT ") {
		t.Fatalf("EXPLAIN ip a000001: %s", got)
	}
}

// TestSlowRequestLogged checks the slog hookup: a slowlog admission
// emits one Warn line carrying the request identity.
func TestSlowRequestLogged(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	col := trace.NewCollector(trace.Config{Slowlog: 0})
	s := allocServer(WithTracing(col), WithLogger(logger))
	if got := s.Exec("INSERT db dead 42"); got != "OK" {
		t.Fatalf("INSERT: %q", got)
	}
	s.Exec("SEARCH db dead")
	out := buf.String()
	for _, want := range []string{"slow request", "cmd=SEARCH", "engine=db", "key=dead", "result=HIT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow-request log missing %q:\n%s", want, out)
		}
	}
	// Below-threshold servers stay silent.
	buf.Reset()
	quiet := allocServer(WithTracing(trace.NewCollector(trace.Config{Slowlog: time.Hour})), WithLogger(logger))
	quiet.Exec("SEARCH db dead")
	if buf.Len() != 0 {
		t.Fatalf("fast request logged: %s", buf.String())
	}
}

// TestTracingOnSteadyStateAllocs documents the traced path's cost: with
// a collector attached but nothing admitted (high threshold, sampling
// off), the per-request overhead is pooled-trace reuse — zero
// steady-state allocations, same as tracing off.
func TestTracingOnSteadyStateAllocs(t *testing.T) {
	col := trace.NewCollector(trace.Config{Slowlog: time.Hour})
	s := allocServer(WithTracing(col))
	if got := s.Exec("INSERT db dead 42"); got != "OK" {
		t.Fatalf("INSERT: %q", got)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = s.ExecAppend(buf[:0], "SEARCH db dead")
	}); n != 0 {
		t.Fatalf("unadmitted traced SEARCH allocated %.1f times per run, want 0", n)
	}
}

// lineReader delivers one request line per Read, so every fill of
// Handle's read buffer lands on top of the line before it.
type lineReader struct{ lines []string }

func (l *lineReader) Read(p []byte) (int, error) {
	if len(l.lines) == 0 {
		return 0, io.EOF
	}
	n := copy(p, l.lines[0]+"\n")
	l.lines = l.lines[1:]
	return n, nil
}

// TestHandleLineViewRetention: Handle executes each line as a view of
// its read buffer, so whatever a request leaves behind must have been
// cloned out of the line. The engine a CREATE registers and the fields
// of admitted traces (every request, with the slowlog threshold at
// zero) are read back after later, longer lines have overwritten the
// buffer they arrived in.
func TestHandleLineViewRetention(t *testing.T) {
	s, _ := tracedServer(trace.Config{Slowlog: 0, Ring: 16})
	filler := "SEARCH db " + strings.Repeat("f", 16) + ":" + strings.Repeat("e", 16)
	var out strings.Builder
	s.Handle(&lineReader{lines: []string{
		"CREATE ENGINE zed TYPE exact",
		"INSERT zed beef 1",
		"SEARCH zed beef",
		filler, filler,
		"ENGINES",
		"SLOWLOG GET",
	}}, &out)
	replies := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(replies) != 7 {
		t.Fatalf("replies: %q", replies)
	}
	if replies[5] != "ENGINES db zed" {
		t.Errorf("ENGINES after the buffer was reused: %q", replies[5])
	}
	for _, want := range []string{
		" cmd=CREATE engine=zed key= result=OK",
		" cmd=INSERT engine=zed key=beef result=OK",
		" cmd=SEARCH engine=zed key=beef result=HIT",
	} {
		if !strings.Contains(replies[6], want) {
			t.Errorf("SLOWLOG GET lacks %q: %q", want, replies[6])
		}
	}
}
