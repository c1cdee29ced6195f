package server

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
)

// Tests for the admission rule of the request path: a trace is
// materialised only for a sampled or *TID-tagged request, everything
// else runs between stamps shared along the burst and is built into a
// slowlog entry after the fact.

// requestPathCollectors are the collectors the zero-alloc table runs
// under; the last is what caram-server's default flags build.
var requestPathCollectors = []struct {
	name string
	cfg  *trace.Config // nil: no collector
}{
	{"no-collector", nil},
	{"slowlog-off", &trace.Config{Slowlog: -1}},
	{"deployed-flags", &trace.Config{Slowlog: 10 * time.Millisecond}},
}

// TestRequestPathZeroAlloc holds the request path to zero allocations
// per request under every collector it is deployed with — today's other
// guards trace with a one-hour slowlog, which is nobody's flag — for
// each engine type's read and for a journaled write, through ExecAppend
// and, per line, through Handle. Run by `make alloc-guard` / `make ci`.
func TestRequestPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's lossy sync.Pool re-allocates pooled state")
	}
	for _, col := range requestPathCollectors {
		w, res, err := wal.Recover(t.TempDir(), nil, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncNever}})
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithWAL(w, res, 0)}
		if col.cfg != nil {
			opts = append(opts, WithTracing(trace.NewCollector(*col.cfg)))
		}
		s := allocServer(opts...)
		defer s.Close() //nolint:errcheck
		for _, req := range []string{
			"CREATE ENGINE ip TYPE lpm INDEXBITS 6 SLOTS 8",
			"CREATE ENGINE acl TYPE pktclass INDEXBITS 6 SLOTS 8",
			"CREATE ENGINE tri TYPE trigram INDEXBITS 6",
			"CREATE ENGINE aux TYPE exact INDEXBITS 6 SLOTS 4",
			"INSERT db dead 42",
			"MINSERT ip a010000 ffff 1002",
			"MINSERT acl a01010000:1bb000006 ffff:ffffff0000ffff00 0:1010064",
			"TINSERT tri 2a the quick fox",
		} {
			if got := s.Exec(req); got != "OK" {
				t.Fatalf("%s: %q", req, got)
			}
		}
		for _, tc := range append([]writeCase{
			{"SEARCH", []string{"SEARCH db dead"}, "HIT 0:0000000000000042"},
			{"lpm", []string{"SEARCH ip a010101"}, "HIT 0:0000000000001002"},
			{"pktclass", []string{"SEARCH acl a010107c0:a8000101bb303906"}, "HIT 0:0000000001010064"},
			{"TSEARCH", []string{"TSEARCH tri the quick fox"}, "HIT 0:000000000000002a"},
			{"INSERT-wal", []string{"INSERT db beef 7", "DELETE db beef"}, "OK"},
		}, runCases...) {
			t.Run(col.name+"/"+tc.name+"/ExecAppend", func(t *testing.T) {
				buf := make([]byte, 0, 64)
				if n := testing.AllocsPerRun(200, func() {
					for _, l := range tc.lines {
						if buf = s.ExecAppend(buf[:0], l); string(buf) != tc.want {
							t.Fatalf("%s: %q, want %q", l, buf, tc.want)
						}
					}
				}); n != 0 {
					t.Errorf("ExecAppend allocates %.1f times per round of %q, want 0", n, tc.lines)
				}
			})
			t.Run(col.name+"/"+tc.name+"/Handle", func(t *testing.T) {
				rounds := min(400, max(16, 800/len(tc.lines))) // 400 rounds of a short round, 16 of a long one
				stream := []byte(strings.Repeat(strings.Join(tc.lines, "\n")+"\n", rounds))
				var rd bytes.Reader
				run := func() {
					rd.Reset(stream)
					s.Handle(&rd, io.Discard)
				}
				run() // warm the connection pool and the Reader cache
				// What Handle spends per connection vanishes in the division.
				if n := testing.AllocsPerRun(10, run) / float64(rounds*len(tc.lines)); n >= 0.02 {
					t.Errorf("Handle allocates %.3f times per line of %q, want 0", n, tc.lines)
				}
			})
		}
	}
}

// burstEntries runs the lines through Handle as one pipelined burst on
// a server that keeps every request (slowlog threshold zero) and
// returns the retained traces, oldest first, and when the burst's read
// returned.
func burstEntries(t *testing.T, lines ...string) (entries []*trace.Trace, read time.Time) {
	t.Helper()
	s, col := tracedServer(trace.Config{Slowlog: 0, Ring: 32})
	var out strings.Builder
	s.Handle(&stampReader{r: strings.NewReader(strings.Join(lines, "\n") + "\n"), at: &read}, &out)
	if got := strings.Count(out.String(), "\n"); got != len(lines) {
		t.Fatalf("%d replies for %d requests: %q", got, len(lines), out.String())
	}
	entries = col.Slow().Snapshot(nil, 0)
	if len(entries) != len(lines) {
		t.Fatalf("slowlog retained %d entries for %d requests", len(entries), len(lines))
	}
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	return entries, read
}

// stampReader notes when its first successful Read returned.
type stampReader struct {
	r  io.Reader
	at *time.Time
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 && s.at.IsZero() {
		*s.at = time.Now()
	}
	return n, err
}

// TestServerSlowlogLateBuilt: a request nobody traced that turns out
// slow gets its entry after the fact — identity from the line, result
// from the reply, rows and a probe chain from the lookup's own result —
// with no wire id, and with stamps that do not overlap the next
// member's.
func TestServerSlowlogLateBuilt(t *testing.T) {
	entries, _ := burstEntries(t,
		"INSERT db dead 42",
		"SEARCH db dead",
		"search db f00d",
		"TSEARCH db some text", // refused: db is not a trigram engine
		"MSEARCH db dead db f00d",
		"bogus x", // named upper-case, as the ERR reply names it
	)
	for i, want := range []struct {
		cmd, eng, key, result string
		rows                  int32
	}{
		{"INSERT", "db", "dead", "OK", 0},
		{"SEARCH", "db", "dead", "HIT", 1},
		{"SEARCH", "db", "f00d", "MISS", 1},
		{"TSEARCH", "db", "some text", "ERR", 0},
		{"MSEARCH", "", "", "MRESULTS", 0},
		{"BOGUS", "", "", "ERR", 0},
	} {
		e := entries[i]
		if e.Cmd != want.cmd || e.Engine != want.eng || e.Key != want.key || e.Result != want.result || e.Rows != want.rows {
			t.Errorf("entry %d: %s/%s/%s result=%s rows=%d, want %+v", i, e.Cmd, e.Engine, e.Key, e.Result, e.Rows, want)
		}
		if e.TID != 0 || e.SpanID != 0 {
			t.Errorf("entry %d carries wire id %x/%d; nothing tagged it", i, e.TID, e.SpanID)
		}
		if _, ok := e.EventOf(trace.KindParse); ok {
			t.Errorf("entry %d has a parse span; it was never traced as it ran", i)
		}
		if i > 0 {
			if prev := entries[i-1]; e.Begin.Before(prev.Begin.Add(prev.Dur)) {
				t.Errorf("entry %d begins inside entry %d's window", i, i-1)
			}
		}
	}
	hit := entries[1]
	var probes []trace.Event
	hit.ProbeEvents(func(e trace.Event) { probes = append(probes, e) })
	if !hit.Found || len(probes) != 1 || probes[0].Bucket != hit.Home || !probes[0].Hit {
		t.Errorf("late-built hit: found=%v home=%d probes=%+v", hit.Found, hit.Home, probes)
	}
}

// TestRetraceMatchesTracedChain holds the probe chain a late-built entry
// synthesises from a lookup's result to the chain the same lookup
// records when it is traced as it runs: same buckets, displacements and
// overflow hops, and the hit on the same probe — over a table loaded
// until keys are displaced, for stored and absent keys alike.
func TestRetraceMatchesTracedChain(t *testing.T) {
	s := allocServer()
	var keys []uint64
	for k := uint64(1); len(keys) < 200; k++ {
		if s.Exec(fmt.Sprintf("INSERT db %x 1", k*0x9e3779b9)) == "OK" {
			keys = append(keys, k*0x9e3779b9)
		}
	}
	displaced := 0
	for i, k := range append(keys, 0xabcdef01, 0xabcdef02, 0xabcdef03) {
		traced := trace.New()
		sr, err := s.con.SearchServed("db", bitutil.Exact(bitutil.FromUint64(k)), nil, traced)
		if err != nil {
			t.Fatal(err)
		}
		late := trace.New()
		s.con.Retrace("db", sr, late)
		if late.Home != traced.Home || late.Rows != traced.Rows || late.Found != traced.Found || late.Found != (i < len(keys)) {
			t.Fatalf("key %x: late summary home=%d rows=%d found=%v, traced home=%d rows=%d found=%v",
				k, late.Home, late.Rows, late.Found, traced.Home, traced.Rows, traced.Found)
		}
		var want, got []trace.Event
		traced.ProbeEvents(func(e trace.Event) { want = append(want, e) })
		late.ProbeEvents(func(e trace.Event) { got = append(got, e) })
		if len(got) != len(want) {
			t.Fatalf("key %x: %d synthesised probes, %d recorded", k, len(got), len(want))
		}
		for j := range want {
			w, g := want[j], got[j]
			if g.Bucket != w.Bucket || g.Displacement != w.Displacement || g.Overflow != w.Overflow || g.Hit != w.Hit {
				t.Errorf("key %x probe %d: synthesised %+v, recorded %+v", k, j, g, w)
			}
		}
		if len(want) > 1 {
			displaced++
		}
	}
	if displaced == 0 {
		t.Fatal("no lookup walked past its home bucket; the table is too sparse to test the chain")
	}
}

// TestLateBuiltEntriesChargeNothing: building an entry after the fact
// touches no row. The same session leaves the same access statistics
// and the same metrics counters on a server that late-builds an entry
// for every request (slowlog threshold zero) as on one with no collector.
func TestLateBuiltEntriesChargeNothing(t *testing.T) {
	plain := allocServer()
	traced, col := tracedServer(trace.Config{Slowlog: 0, Ring: 8})
	for _, s := range []*Server{plain, traced} {
		for k := 1; k <= 150; k++ {
			s.Exec(fmt.Sprintf("INSERT db %x 1", k*0x9e3779b9))
		}
		for k := 1; k <= 300; k++ { // the second half was never stored
			s.Exec(fmt.Sprintf("SEARCH db %x", k*0x9e3779b9))
			s.Exec(fmt.Sprintf("MSEARCH db %x db %x", k*0x9e3779b9, k))
		}
	}
	if col.Slow().Total() < 700 {
		t.Fatalf("only %d entries were late-built; the traced run exercised nothing", col.Slow().Total())
	}
	want, _ := plain.con.Info("db")
	got, _ := traced.con.Info("db")
	if got.Stats != want.Stats || got.Stats.Lookups == 0 || got.Stats.RowsAccessed <= got.Stats.Lookups {
		t.Errorf("access statistics differ, or no lookup walked a chain:\n late-built %+v\n no collector %+v", got.Stats, want.Stats)
	}
	if g, w := traced.Exec("METRICS db"), plain.Exec("METRICS db"); g != w {
		t.Errorf("metrics counters differ:\n late-built %s\n no collector %s", g, w)
	}
}

// TestServerMaterialisesOnlySampledOrTagged: under the deployed flags
// no request materialises a trace; sampling materialises exactly its
// share; a *TID request yields one tagged trace that is a full one
// (parse and encode spans); and Seen counts every request either way.
func TestServerMaterialisesOnlySampledOrTagged(t *testing.T) {
	const n = 64
	run := func(s *Server) {
		t.Helper()
		if got := s.Exec("INSERT db dead 42"); got != "OK" {
			t.Fatalf("INSERT: %q", got)
		}
		for i := 1; i < n; i++ {
			if got := s.Exec("SEARCH db dead"); got != "HIT 0:0000000000000042" {
				t.Fatalf("SEARCH: %q", got)
			}
		}
	}
	s, col := tracedServer(trace.Config{Slowlog: 10 * time.Millisecond})
	run(s)
	if col.Sampled().Len() != 0 || col.Tagged().Len() != 0 || col.Seen() != n {
		t.Errorf("deployed flags: sampled=%d tagged=%d seen=%d, want 0, 0, %d",
			col.Sampled().Len(), col.Tagged().Len(), col.Seen(), n)
	}
	if got := s.Exec("*TID c0ffee/2 SEARCH db dead"); got != "HIT 0:0000000000000042" {
		t.Fatalf("tagged SEARCH: %q", got)
	}
	if col.Tagged().Len() != 1 || col.Seen() != n+1 {
		t.Fatalf("after one tagged request: tagged=%d seen=%d", col.Tagged().Len(), col.Seen())
	}
	tagged := col.Find(0xc0ffee, 2)
	if tagged == nil {
		t.Fatal("tagged trace not found by its wire id")
	}
	for _, k := range []trace.Kind{trace.KindParse, trace.KindProbe, trace.KindMatch, trace.KindEncode} {
		if _, ok := tagged.EventOf(k); !ok {
			t.Errorf("tagged trace lacks its %v event: %+v", k, tagged.Events)
		}
	}

	s, col = tracedServer(trace.Config{SampleN: 4, Slowlog: 10 * time.Millisecond})
	run(s)
	if col.Sampled().Len() != n/4 || col.Seen() != n {
		t.Errorf("SampleN 4: sampled=%d seen=%d, want %d, %d", col.Sampled().Len(), col.Seen(), n/4, n)
	}
}

// TestBurstClockChain pins the burst's shared clock: with every member
// retained, each member's admission stamp is exactly the previous
// member's end stamp — one clock read serves both — and the first
// member is admitted after the read that delivered the burst returned.
func TestBurstClockChain(t *testing.T) {
	entries, read := burstEntries(t,
		"INSERT db dead 42",
		"SEARCH db dead",
		"STATS db",
		"SEARCH db f00d",
		"MSEARCH db dead db f00d",
		"DELETE db dead",
		"NOPE",
	)
	if entries[0].Begin.Before(read) {
		t.Errorf("first member admitted at %v, before the burst's read returned at %v", entries[0].Begin, read)
	}
	for i := 1; i < len(entries); i++ {
		prev, e := entries[i-1], entries[i]
		if end := prev.Begin.Add(prev.Dur); !e.Begin.Equal(end) {
			t.Errorf("member %d admitted at %v, member %d ended at %v (%v apart); the stamp is not shared",
				i, e.Begin, i-1, end, e.Begin.Sub(end))
		}
	}
}

// chunkReader delivers its chunks one per Read, pausing before each but
// the first.
type chunkReader struct {
	chunks []string
	pause  time.Duration
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.reads == len(c.chunks) {
		return 0, io.EOF
	}
	if c.reads > 0 {
		time.Sleep(c.pause)
	}
	c.reads++
	return copy(p, c.chunks[c.reads-1]), nil
}

// TestSplitLineWaitIsNotLatency: a burst member admitted on its
// predecessor's end stamp must have been whole when the predecessor
// ran. A line whose tail a later read delivers reads the clock itself,
// or the wait for that tail — a slow client, a retransmit — would be
// logged as a slow request.
func TestSplitLineWaitIsNotLatency(t *testing.T) {
	const pause = 30 * time.Millisecond
	s, col := tracedServer(trace.Config{Slowlog: 10 * time.Millisecond})
	var out strings.Builder
	s.Handle(&chunkReader{pause: pause, chunks: []string{
		"INSERT db dead 42\nSEARCH db dead\nSEARCH db de",
		"ad\nSEARCH db f00d\nSEARCH db",
		" dead\n",
	}}, &out)
	if got, want := out.String(), "OK\nHIT 0:0000000000000042\nHIT 0:0000000000000042\nMISS\nHIT 0:0000000000000042\n"; got != want {
		t.Fatalf("replies %q, want %q", got, want)
	}
	for _, e := range col.Slow().Snapshot(nil, 0) {
		if e.Dur >= pause {
			t.Errorf("%s %s logged as taking %v: the %v wait for the rest of its line was counted", e.Cmd, e.Key, e.Dur, pause)
		}
	}
}

// sleepyJournal is a journal whose durability wait takes a fixed time.
type sleepyJournal struct {
	lsn  uint64
	wait time.Duration
}

func (j *sleepyJournal) Append(subsystem.JournalEntry) (uint64, error) { j.lsn++; return j.lsn, nil }
func (j *sleepyJournal) Commit(uint64) error                           { time.Sleep(j.wait); return nil }
func (j *sleepyJournal) LastLSN() uint64                               { return j.lsn }

// TestSlowWriteKeepsWALAppendSpan: the writes that pass the slowlog
// threshold are the ones that waited for an fsync, and their entries —
// late-built, since nothing sampled or tagged them — must say so: a
// wal_append span covering the durability wait.
func TestSlowWriteKeepsWALAppendSpan(t *testing.T) {
	const wait = 15 * time.Millisecond
	s, col := tracedServer(trace.Config{Slowlog: 10 * time.Millisecond})
	s.con.SetJournal(&sleepyJournal{wait: wait}, 0)
	got := drive(t, s, "INSERT db dead 42", "SEARCH db dead", "DELETE db dead")
	if got[0] != "OK" || got[1] != "HIT 0:0000000000000042" || got[2] != "OK" {
		t.Fatalf("replies: %q", got)
	}
	writes := 0
	for _, e := range col.Slow().Snapshot(nil, 0) {
		if e.Cmd == "SEARCH" {
			continue // not slow by design, but a descheduled test may make it so
		}
		writes++
		ev, ok := e.EventOf(trace.KindWALAppend)
		if e.Key != "dead" || !ok {
			t.Fatalf("%s key=%s events=%+v, want a wal_append span", e.Cmd, e.Key, e.Events)
		}
		if ev.Dur < wait || ev.Offset < 0 || ev.Offset+ev.Dur > e.Dur {
			t.Errorf("%s: wal_append +%v for %v inside a request of %v; the wait alone is %v", e.Cmd, ev.Offset, ev.Dur, e.Dur, wait)
		}
	}
	if writes != 2 {
		t.Fatalf("slowlog holds %d writes, want the INSERT and the DELETE", writes)
	}
}
