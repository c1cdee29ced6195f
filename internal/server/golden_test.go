package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden protocol files")

// goldenServer must be deterministic: fixed engines, fixed geometry,
// no randomized hashing. Tracing is attached with an unreachable
// slowlog threshold so the SLOWLOG exchanges in the session stay
// deterministic (nothing is ever admitted) while the commands
// themselves are exercised; EXPLAIN forces its own trace and prints
// only positional (timing-free) facts, so its full output is golden.
// A fresh sync=always WAL is attached per replay: WAL STATUS is then a
// pure function of the scripted mutations (durable==lsn at every
// reply), so its exchanges golden too.
func goldenServer(t *testing.T) *Server {
	t.Helper()
	sub := subsystem.New(0)
	for _, name := range []string{"db", "aux"} {
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
	w, res, err := wal.Recover(t.TempDir(), nil, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sub,
		WithTracing(trace.NewCollector(trace.Config{Slowlog: time.Hour})),
		WithWAL(w, res, 0))
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	return s
}

// TestGoldenSession replays the scripted session in testdata and
// requires byte-exact responses — the protocol's compatibility
// contract. Regenerate with `go test ./internal/server -run Golden
// -update` after a deliberate protocol change, and review the diff.
func TestGoldenSession(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "session.script"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	goldenServer(t).Handle(bytes.NewReader(script), &out)

	goldenPath := filepath.Join("testdata", "session.golden")
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
	// Line-by-line diff, annotated with the request that produced each
	// response, so a failure reads like a protocol trace.
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
		t.Fatalf("outputs differ only in trailing bytes: got %q, want %q",
			out.String(), string(want))
	}
}

// TestGoldenDeterministic guards the premise of the golden file: two
// identical replays must produce identical bytes (no map-order or
// scheduling nondeterminism leaks into responses).
func TestGoldenDeterministic(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("testdata", "session.script"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	goldenServer(t).Handle(bytes.NewReader(script), &a)
	goldenServer(t).Handle(bytes.NewReader(script), &b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two replays of the same session differ")
	}
	if a.Len() == 0 || !strings.HasSuffix(a.String(), "\n") {
		t.Fatalf("malformed session output %q", a.String())
	}
}
