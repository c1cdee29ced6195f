package server

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/trigram"
	"caram/internal/wal"
)

func allocServer(opts ...Option) *Server {
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
	return New(sub, opts...)
}

// TestExecAppendSearchZeroAlloc guards the end-to-end request hot path:
// a SEARCH through parse → engine lock → word-parallel match → reply
// encode must not allocate when the caller reuses its reply buffer, on
// the uninstrumented and the default (instrumented) server alike. Run
// by `make alloc-guard` / `make ci`.
func TestExecAppendSearchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Server
	}{
		{"uninstrumented", allocServer(WithoutMetrics())},
		{"instrumented", allocServer()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Exec("INSERT db dead 42"); got != "OK" {
				t.Fatalf("INSERT: %q", got)
			}
			buf := make([]byte, 0, 64)
			if n := testing.AllocsPerRun(200, func() {
				buf = tc.s.ExecAppend(buf[:0], "SEARCH db dead")
				buf = tc.s.ExecAppend(buf[:0], "SEARCH db f00d")
				buf = tc.s.ExecAppend(buf[:0], "search db dead") // verbs fold case without a copy
			}); n != 0 {
				t.Fatalf("SEARCH ExecAppend allocated %.1f times per run, want 0", n)
			}
			if got := string(tc.s.ExecAppend(buf[:0], "SEARCH db dead")); got != "HIT 0:0000000000000042" {
				t.Fatalf("SEARCH reply = %q", got)
			}
		})
	}
}

// TestTypedExecAppendSearchZeroAlloc re-runs the zero-alloc guard on a
// server also hosting wire-created typed engines: registering lpm /
// pktclass / trigram engines must not add allocations to the exact
// engine's SEARCH hot path (the COW engine roster keeps dispatch to
// one atomic load), and the typed reads themselves stay allocation-free
// too — LPM's and the classifier's ranked LookupBest over bounded row
// snapshots, and the trigram key fold, included.
func TestTypedExecAppendSearchZeroAlloc(t *testing.T) {
	s := allocServer()
	for _, req := range []string{
		"CREATE ENGINE ip TYPE lpm INDEXBITS 6 SLOTS 8",
		"CREATE ENGINE acl TYPE pktclass INDEXBITS 6 SLOTS 8",
		"CREATE ENGINE tri TYPE trigram INDEXBITS 6",
		"INSERT db dead 42",
		"MINSERT ip a000000 ffffff 801",
		"MINSERT ip a010000 ffff 1002",
		"MINSERT acl a01010000:1bb000006 ffff:ffffff0000ffff00 0:1010064",
		"MINSERT acl a01000000:6 ffffff:ffffffffffffff00 0:2020032",
		"TINSERT tri 2a the quick fox",
	} {
		if got := s.Exec(req); got != "OK" {
			t.Fatalf("%s: %q", req, got)
		}
	}
	buf := make([]byte, 0, 64)
	for _, tc := range []struct{ name, req string }{
		{"exact", "SEARCH db dead"},
		{"lpm", "SEARCH ip a010101"},
		{"pktclass", "SEARCH acl a010107c0:a8000101bb303906"},
		{"pktclass-miss", "SEARCH acl b000001c0:a8000101bb303906"},
		{"trigram", "TSEARCH tri the quick fox"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(200, func() {
				buf = s.ExecAppend(buf[:0], tc.req)
			}); n != 0 {
				t.Fatalf("%s ExecAppend allocated %.1f times per run, want 0", tc.req, n)
			}
		})
	}
}

// TestWALExecAppendSearchZeroAlloc re-runs the zero-alloc guard with
// the durability layer attached: journaling is an insert-side cost,
// and SEARCH through a WAL-enabled server must stay allocation-free —
// the read hot path sees only a nil-journal check it never takes.
// Run by `make alloc-guard` / `make ci`.
func TestWALExecAppendSearchZeroAlloc(t *testing.T) {
	w, res, err := wal.Recover(t.TempDir(), nil, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	s := allocServer(WithWAL(w, res, 0))
	defer s.Close() //nolint:errcheck
	if got := s.Exec("INSERT db dead 42"); got != "OK" {
		t.Fatalf("INSERT: %q", got)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = s.ExecAppend(buf[:0], "SEARCH db dead")
		buf = s.ExecAppend(buf[:0], "SEARCH db f00d")
	}); n != 0 {
		t.Fatalf("SEARCH with WAL enabled allocated %.1f times per run, want 0", n)
	}
	if got := string(s.ExecAppend(buf[:0], "SEARCH db dead")); got != "HIT 0:0000000000000042" {
		t.Fatalf("SEARCH reply = %q", got)
	}
}

// TestServedWritesZeroAlloc guards the write side of the request path
// the way the search guards hold the read side: an acked INSERT and
// DELETE, a duplicate INSERT (the exact-locate's ERR exists) and a DELETE
// of an absent key (journaled before it applies, then ERR not found)
// allocate nothing, through ExecAppend and, per line, through Handle, on
// a server deployed as mixed-wal deploys one — metrics on, the collector
// caram-server's default flags build, the WAL attached and syncing every
// 5 ms. Run by `make alloc-guard` / `make ci` and `make write-guard`.
func TestServedWritesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's lossy sync.Pool re-allocates pooled state")
	}
	w, res, err := wal.Recover(t.TempDir(), nil, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncInterval, Interval: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	s := allocServer(WithWAL(w, res, 0), WithTracing(trace.NewCollector(trace.Config{Slowlog: 10 * time.Millisecond})))
	defer s.Close() //nolint:errcheck
	for _, req := range []string{
		"INSERT db dead 42",
		"CREATE ENGINE aux TYPE exact INDEXBITS 6 SLOTS 4",
		"CREATE ENGINE ip TYPE lpm INDEXBITS 6 SLOTS 8",
		"CREATE ENGINE tri TYPE trigram INDEXBITS 6",
	} {
		if got := s.Exec(req); got != "OK" {
			t.Fatalf("%s: %q", req, got)
		}
	}
	for _, tc := range append([]writeCase{
		{"INSERT+DELETE", []string{"INSERT db beef 7", "DELETE db beef"}, "OK"},
		{"duplicate-INSERT", []string{"INSERT db dead 43"}, "ERR caram: record already present"},
		{"absent-DELETE", []string{"DELETE db f00d"}, "ERR caram: record not found"},
	}, runCases...) {
		t.Run(tc.name+"/ExecAppend", func(t *testing.T) {
			buf := make([]byte, 0, 64)
			if n := testing.AllocsPerRun(200, func() {
				for _, l := range tc.lines {
					if buf = s.ExecAppend(buf[:0], l); string(buf) != tc.want {
						t.Fatalf("%s: %q, want %q", l, buf, tc.want)
					}
				}
			}); n != 0 {
				t.Errorf("ExecAppend allocates %.2f times per round of %q, want 0", n, tc.lines)
			}
		})
		t.Run(tc.name+"/Handle", func(t *testing.T) {
			rounds := min(400, max(16, 800/len(tc.lines))) // 400 rounds of a short round, 16 of a long one
			stream := []byte(strings.Repeat(strings.Join(tc.lines, "\n")+"\n", rounds))
			var rd bytes.Reader
			var out bytes.Buffer
			run := func() {
				rd.Reset(stream)
				out.Reset()
				s.Handle(&rd, &out)
			}
			run() // warm the connection pool and the reply buffer
			// What Handle spends per connection vanishes in the division.
			if n := testing.AllocsPerRun(10, run) / float64(rounds*len(tc.lines)); n >= 0.02 {
				t.Errorf("Handle allocates %.3f times per line of %q, want 0", n, tc.lines)
			}
			if want := strings.Repeat(tc.want+"\n", rounds*len(tc.lines)); out.String() != want {
				t.Errorf("Handle replied %q..., want %d lines of %q", out.String()[:min(out.Len(), 80)], rounds*len(tc.lines), tc.want)
			}
		})
	}
	if got := s.Exec("SEARCH db dead"); got != "HIT 0:0000000000000042" {
		t.Fatalf("the held record after the guard: %q", got)
	}
}

// writeCase is one input of the write-path allocation guards: a round of
// request lines, every reply of which is want.
type writeCase struct {
	name  string
	lines []string
	want  string
}

// runCases are the guards' inputs that Handle applies as runs of writes:
// 64 INSERTs then the 64 DELETEs that undo them, 64 DELETEs of absent
// keys, runs of 16 that switch engine, db to aux and back, mid-burst, and
// the typed writes: 16 MINSERTs of /14 prefixes to the lpm engine ip
// (each duplicated into 4 home buckets) then the MDELETEs that undo
// them, and 16 TINSERTs to the trigram engine tri then DELETEs of their
// key images.
var runCases = func() []writeCase {
	var ins, del, absent, sw, lpm, tri []string
	for i := 0; i < 64; i++ {
		ins = append(ins, fmt.Sprintf("INSERT db %x %x", 0x1000+i, i))
		del = append(del, fmt.Sprintf("DELETE db %x", 0x1000+i))
		absent = append(absent, fmt.Sprintf("DELETE db %x", 0x2000+i))
	}
	for _, verb := range []string{"INSERT", "DELETE"} {
		for _, eng := range []string{"db", "aux"} {
			for i := 0; i < 16; i++ {
				line := fmt.Sprintf("%s %s %x", verb, eng, 0x3000+i)
				if verb == "INSERT" {
					line += " 5"
				}
				sw = append(sw, line)
			}
		}
	}
	for _, verb := range []string{"MINSERT", "MDELETE"} {
		for i := 0; i < 16; i++ {
			line := fmt.Sprintf("%s ip %x 3ffff", verb, 0xc000000|i<<20)
			if verb == "MINSERT" {
				line += fmt.Sprintf(" %x", i)
			}
			lpm = append(lpm, line)
		}
	}
	for i := 0; i < 16; i++ {
		tri = append(tri, fmt.Sprintf("TINSERT tri %x run text %d", i, i))
	}
	for i := 0; i < 16; i++ {
		k := trigram.Entry{Text: fmt.Sprintf("run text %d", i)}.Key()
		tri = append(tri, fmt.Sprintf("DELETE tri %x:%x", k.Hi, k.Lo))
	}
	return []writeCase{
		{"INSERT-run", append(ins, del...), "OK"},
		{"DELETE-run", absent, "ERR caram: record not found"},
		{"engine-switch", sw, "OK"},
		{"lpm-run", lpm, "OK"},
		{"TINSERT-run", tri, "OK"},
	}
}()

// TestHandleZeroAllocPerLine guards the wire path the ExecAppend guards
// above never reached: Handle hands each request line to the protocol
// engine as a view of its read buffer, not a copy, so an untraced SEARCH
// costs zero allocations per line over the socket as well, and so does
// an MSEARCH line, through ExecAppend and through Handle — the parsed
// key list and the executor's result and grouping slices are pooled
// together — on a server configured the way caram-server deploys one:
// metrics on, trace collector attached, sampling off. Run by
// `make alloc-guard` / `make ci`.
func TestHandleZeroAllocPerLine(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's lossy sync.Pool re-allocates pooled traces")
	}
	s := allocServer(WithTracing(trace.NewCollector(trace.Config{Slowlog: time.Hour})))
	var search, msearch bytes.Buffer
	for i := 0; i < 64; i++ {
		if got := s.Exec(fmt.Sprintf("INSERT db %x %x", i*7, i)); got != "OK" {
			t.Fatalf("INSERT: %q", got)
		}
	}
	const lines = 1600
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&search, "SEARCH db %x\n", i%128*7)
	}
	msLine := "MSEARCH"
	for i := 0; i < 64; i++ {
		msLine += fmt.Sprintf(" db %x", i*7)
	}
	for i := 0; i < lines/16; i++ {
		msearch.WriteString(msLine + "\n")
	}
	// perLine runs the stream through Handle and returns allocations per
	// request line; the handful Handle spends per connection vanishes in
	// the division or shows up as a small fraction.
	var rd bytes.Reader
	perLine := func(stream []byte, n int) float64 {
		run := func() {
			rd.Reset(stream)
			s.Handle(&rd, io.Discard)
		}
		run() // warm the connection pool, the Reader cache and the trace pool
		return testing.AllocsPerRun(10, run) / float64(n)
	}
	if got := perLine(search.Bytes(), lines); got >= 0.01 {
		t.Errorf("Handle allocated %.3f times per SEARCH line, want 0", got)
	}
	var buf []byte
	buf = s.ExecAppend(buf[:0], msLine)
	if got := testing.AllocsPerRun(100, func() { buf = s.ExecAppend(buf[:0], msLine) }); got != 0 {
		t.Errorf("ExecAppend allocated %.1f times per MSEARCH line, want 0", got)
	}
	if got := perLine(msearch.Bytes(), lines/16); got >= 0.1 {
		t.Errorf("Handle allocated %.2f times per MSEARCH line, want 0", got)
	}
}
