package server

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/trigram"
	"caram/internal/wal"
	"caram/internal/wire"
)

// keptJournal is a journal that keeps every record it is handed, in LSN
// order, with its engine name cloned (a served write's name is a view).
type keptJournal struct {
	mu   sync.Mutex
	ents []subsystem.JournalEntry
}

func (j *keptJournal) Append(e subsystem.JournalEntry) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e.Engine = strings.Clone(e.Engine)
	j.ents = append(j.ents, e)
	return uint64(len(j.ents)), nil
}

func (j *keptJournal) Commit(uint64) error { return nil }

func (j *keptJournal) LastLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return uint64(len(j.ents))
}

// runServer builds one side of the run-versus-line differential: exact
// engines db and aux, an error-coded exact engine ecc, the typed engines
// ip (lpm), acl (pktclass) and tri (trigram), a journal that keeps every
// record, metrics on, and a collector that samples one request in five
// with the slowlog off: the differential compares replies, state,
// journal and sampled/tagged totals, not latency, and a pause that put
// one request over a threshold on one side only would tell the two
// sides apart. The ecc engine has 2^eccIndexBits rows.
func runServer(t *testing.T, eccIndexBits int) (*Server, map[string]*caram.Slice, *trace.Collector, *keptJournal) {
	t.Helper()
	sub := subsystem.New(0)
	slices := make(map[string]*caram.Slice)
	for _, name := range []string{"db", "aux", "ecc"} {
		bits := 5
		if name == "ecc" {
			bits = eccIndexBits
		}
		sl := caram.MustNew(caram.Config{
			IndexBits: bits,
			RowBits:   4*(1+64+32) + 8,
			KeyBits:   64,
			DataBits:  32,
			Index:     hash.NewMultShift(bits),
			ECC:       name == "ecc",
		})
		if err := sub.AddEngine(&subsystem.Engine{Name: name, Main: sl}); err != nil {
			t.Fatal(err)
		}
		slices[name] = sl
	}
	for _, te := range []struct {
		name string
		typ  subsystem.EngineType
	}{{"ip", subsystem.LPMEngine}, {"acl", subsystem.PktClassEngine}, {"tri", subsystem.TrigramEngine}} {
		e, err := subsystem.NewTypedEngine(te.name, te.typ, subsystem.TypedConfig{IndexBits: 5, Slots: 4})
		if err == nil {
			err = sub.AddEngine(e)
		}
		if err != nil {
			t.Fatal(err)
		}
		slices[te.name] = e.Main
	}
	trc := trace.NewCollector(trace.Config{SampleN: 5, Slowlog: -1, Ring: 8})
	s := New(sub, WithTracing(trc))
	j := &keptJournal{}
	s.con.SetJournal(j, 0)
	return s, slices, trc, j
}

// choppyReader hands out its stream in chunks of random length, so that
// runs straddle reads and lines are completed by later ones.
type choppyReader struct {
	rest []byte
	rng  *rand.Rand
}

func (c *choppyReader) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 1+c.rng.Intn(3000))], c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

// runVersusLines sends each burst through Handle on one server and the
// same lines one ExecAppend at a time on its twin, and fails unless the
// replies, the final engine images and the journal records are the same.
func runVersusLines(t *testing.T, bursts [][]string, eccIndexBits int, prep func(map[string]*caram.Slice)) string {
	t.Helper()
	runs, runSlices, rc, runLog := runServer(t, eccIndexBits)
	lines, lineSlices, lc, lineLog := runServer(t, eccIndexBits)
	if prep != nil {
		prep(runSlices)
		prep(lineSlices)
	}
	rng := rand.New(rand.NewSource(1))
	var got, want strings.Builder
	for _, burst := range bursts {
		var in strings.Builder
		for _, l := range burst {
			in.WriteString(l)
			in.WriteByte('\n')
			want.Write(lines.ExecAppend(nil, l))
			want.WriteByte('\n')
		}
		runs.Handle(&choppyReader{rest: []byte(in.String()), rng: rng}, &got)
	}
	if g, w := got.String(), want.String(); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		all := slices.Concat(bursts...)
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("reply %d to %q: %q through runs, %q line at a time", i, all[i], gl[i], wl[i])
			}
		}
		t.Fatalf("%d replies through runs, %d line at a time", len(gl), len(wl))
	}
	// A sampled or tagged write is traced as it runs, so it never joins a
	// run: both sides keep the same traces.
	if rc.Seen() != lc.Seen() || rc.Sampled().Total() != lc.Sampled().Total() || rc.Tagged().Total() != lc.Tagged().Total() {
		t.Errorf("traces: seen %d, sampled %d, tagged %d through runs; %d, %d, %d line at a time",
			rc.Seen(), rc.Sampled().Total(), rc.Tagged().Total(), lc.Seen(), lc.Sampled().Total(), lc.Tagged().Total())
	}
	for name, sl := range runSlices {
		if !slices.Equal(sl.Array().PeekWords(), lineSlices[name].Array().PeekWords()) || sl.Count() != lineSlices[name].Count() {
			t.Errorf("engine %s: the two images differ (%d and %d records)", name, sl.Count(), lineSlices[name].Count())
		}
	}
	if !slices.Equal(runLog.ents, lineLog.ents) {
		t.Errorf("journals differ: %d records through runs, %d line at a time", len(runLog.ents), len(lineLog.ents))
		for i := range min(len(runLog.ents), len(lineLog.ents)) {
			if runLog.ents[i] != lineLog.ents[i] {
				t.Fatalf("first difference at LSN %d: %+v through runs, %+v line at a time", i+1, runLog.ents[i], lineLog.ents[i])
			}
		}
	}
	return got.String()
}

// TestWriteRunsMatchLineAtATime: applying a burst's writes as runs is
// invisible. Random bursts — runs of every length to past runCap, with
// duplicate and absent keys, lower-case verbs and engine switches and
// lines padded past a run's byte bound: INSERT and DELETE to the exact
// engines, MINSERT and MDELETE of prefixes and rules, some duplicated
// over wildcard home buckets, to the lpm and pktclass engines, TINSERT
// and DELETEs of its key images to the trigram engine — broken up by bad
// hex, arity errors, type-gate errors, a bad score, text past
// wire.MaxText, an unknown engine, *TID-tagged and head-sampled writes,
// SEARCH, TSEARCH and STATS, are answered byte for byte as the same
// lines one ExecAppend at a time, leave the same tables and journal the
// same records in the same order; the METRICS counters that close the
// last burst agree too.
func TestWriteRunsMatchLineAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	engines := []string{"db", "aux", "ecc", "ip", "acl", "tri"}
	k := func() string { return fmt.Sprintf("%x", rng.Intn(150)) }
	text := func() string { return fmt.Sprintf("entry %d", rng.Intn(150)) }
	write := func(eng string) string {
		verb := []string{"INSERT", "DELETE", "insert", "Delete"}[rng.Intn(4)]
		key, data := k(), fmt.Sprintf("%x", rng.Intn(1<<20))
		switch {
		case eng == "ip" && rng.Intn(8) > 0:
			verb = []string{"MINSERT", "MDELETE", "minsert"}[rng.Intn(3)]
			key = fmt.Sprintf("%x %x", rng.Intn(64)<<22|rng.Intn(4)<<16, []int{0xff, 0xffff, 0x3ffff, 0xfffff}[rng.Intn(4)])
		case eng == "acl":
			verb = []string{"MINSERT", "MDELETE", "mdelete"}[rng.Intn(3)]
			key = fmt.Sprintf("%x:%x %s", rng.Intn(8)<<24, rng.Intn(16)<<40|rng.Intn(4),
				[]string{"0:ffff", "ffff:ffffff0000ffff00", "ff:ffffffffff000000"}[rng.Intn(3)])
			data = fmt.Sprintf("0:%x", rng.Intn(1<<24))
		case eng == "tri" && rng.Intn(4) > 0:
			return fmt.Sprintf("TINSERT tri %x %s", rng.Intn(1<<16), text())
		case eng == "tri":
			tk := trigram.Entry{Text: text()}.Key()
			key = fmt.Sprintf("%x:%x", tk.Hi, tk.Lo)
		}
		if rng.Intn(40) == 0 {
			eng = strings.Repeat(" ", 2000) + eng // padded: a run ends on its bytes too
		}
		if strings.HasSuffix(strings.ToUpper(verb), "INSERT") {
			return fmt.Sprintf("%s %s %s %s", verb, eng, key, data)
		}
		return fmt.Sprintf("%s %s %s", verb, eng, key)
	}
	other := func() string {
		eng := engines[rng.Intn(len(engines))]
		switch rng.Intn(20) {
		case 0:
			return "INSERT " + eng + " 12zz 5"
		case 1:
			return "INSERT " + eng + " " + k() + " zz"
		case 2:
			return "DELETE " + eng + " q1"
		case 3:
			return "INSERT " + eng + " " + k()
		case 4:
			return "DELETE " + eng
		case 5:
			return "INSERT nope " + k() + " 6"
		case 6:
			return "DELETE nope " + k()
		case 7:
			return "*TID 1f/1 " + write(eng)
		case 8:
			return "STATS " + eng
		case 9:
			return write(eng) // a run of one, or a switch of engine
		case 10:
			return "MINSERT db 1 0 2" // an exact engine takes no masked write
		case 11:
			return "TINSERT ip 1 " + text() // nor an lpm engine text
		case 12:
			return "TINSERT tri 1zz " + text()
		case 13:
			return "TINSERT tri 1 " + strings.Repeat("x", wire.MaxText+1)
		case 14:
			return []string{"MINSERT nope 1 0 2", "MDELETE nope 1 0", "TINSERT nope 1 " + text()}[rng.Intn(3)]
		case 15:
			return []string{"MINSERT ip 1 zz 2", "MDELETE acl 1", "TINSERT tri 1", "MINSERT ip 1 0 2 3"}[rng.Intn(4)]
		case 16:
			return "TSEARCH tri " + text()
		default:
			return "SEARCH " + eng + " " + k()
		}
	}
	var bursts [][]string
	for b := 0; b < 40; b++ {
		var burst []string
		for len(burst) < 400 {
			if rng.Intn(2) == 0 {
				eng := engines[rng.Intn(len(engines))]
				for n := 1 + rng.Intn(2*runCap); n > 0; n-- {
					burst = append(burst, write(eng))
				}
			} else {
				burst = append(burst, other())
			}
		}
		bursts = append(bursts, burst)
	}
	bursts[len(bursts)-1] = append(bursts[len(bursts)-1], "METRICS", "METRICS db", "METRICS ecc", "METRICS ip", "METRICS acl", "METRICS tri")
	runVersusLines(t, bursts, 5, nil)
}

// TestWriteRunRefusedOnceFailed: an engine that turns Failed partway
// through a run refuses the rest of the run with ErrEngineUnavailable,
// exactly as each write admitted on its own would have been refused. The
// third insert's home row of the error-coded engine holds an
// uncorrectable error: its placement quarantines the row, which on the
// engine's four rows is the quarter that fails it.
func TestWriteRunRefusedOnceFailed(t *testing.T) {
	var keys []uint64
	probe := caram.MustNew(caram.Config{IndexBits: 2, RowBits: 4*(1+64+32) + 8, KeyBits: 64, DataBits: 32, Index: hash.NewMultShift(2)})
	bad := probe.Index(bitutil.FromUint64(3))
	for k := uint64(4); len(keys) < 5; k++ {
		// The two inserts ahead of the third stay clear of its row.
		if len(keys) >= 2 || probe.Index(bitutil.FromUint64(k)) != bad {
			keys = append(keys, k)
		}
	}
	keys = slices.Insert(keys, 2, 3)
	corrupt := func(sl map[string]*caram.Slice) {
		row := sl["ecc"].Array().PeekRow(bad)
		row[0] ^= 1 << 3
		row[1] ^= 1 << 5
	}
	var burst []string
	for _, k := range keys {
		burst = append(burst, fmt.Sprintf("INSERT ecc %x %x", k, k))
	}
	burst = append(burst, fmt.Sprintf("DELETE ecc %x", keys[0]), "INSERT db 1 2", "HEALTH ecc")
	got := strings.Split(runVersusLines(t, [][]string{burst}, 2, corrupt), "\n")
	unavailable := "ERR " + subsystem.ErrEngineUnavailable.Error()
	want := []string{"OK", "OK", "OK", unavailable, unavailable, unavailable, unavailable, "OK"}
	if !slices.Equal(got[:len(want)], want) {
		t.Fatalf("replies %q, want %q", got[:len(want)], want)
	}
}

// TestWriteRunRacesDropEngine: runs of writes to an engine that another
// connection keeps creating and dropping. A run resolves its engine once,
// so it completes on the engine it was admitted to, or fails whole with
// "no engine"; every reply is one of the two, under the race detector too.
// An engine that lives through two runs fills up, and a DELETE whose
// INSERT, the line before it in the same run, was refused as full finds
// nothing: that one reply may be "not found".
func TestWriteRunRacesDropEngine(t *testing.T) {
	s := allocServer()
	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.Exec("CREATE ENGINE tmp TYPE exact INDEXBITS 6 SLOTS 4")
			s.Exec("DROP ENGINE tmp")
		}
	}()
	var stream strings.Builder
	for i := 0; i < 3*runCap; i++ {
		fmt.Fprintf(&stream, "INSERT tmp %x 1\n", i)
		if i%100 == 99 {
			fmt.Fprintf(&stream, "DELETE tmp %x\n", i)
		}
	}
	for i := 0; i < rounds; i++ {
		var out strings.Builder
		s.Handle(strings.NewReader(stream.String()), &out)
		replies := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		for j, r := range replies {
			switch r {
			case "OK", `ERR subsystem: no engine "tmp"`, "ERR " + caram.ErrExists.Error(), "ERR " + caram.ErrFull.Error():
			case "ERR " + caram.ErrNotFound.Error():
				if j == 0 || replies[j-1] != "ERR "+caram.ErrFull.Error() {
					t.Fatalf("reply %d %q, after %q", j, r, replies[max(j-1, 0)])
				}
			default:
				t.Fatalf("reply %q", r)
			}
		}
	}
	wg.Wait()
}

// TestWriteRunSlowlogAdmitsNone: a run member is admitted when its
// predecessor finished, as any burst member is, and timed over its own
// apply window — not from when its line was read, which would put the
// whole run's time on its later members. 10 000 fast INSERTs in one
// burst, on a server with the WAL attached and the deployed 10 ms
// slowlog threshold, admit no slowlog entry.
func TestWriteRunSlowlogAdmitsNone(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's slowdown and pauses say nothing about a 10 ms threshold")
	}
	w, res, err := wal.Recover(t.TempDir(), nil, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncInterval, Interval: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	sub := subsystem.New(0)
	sl := caram.MustNew(caram.Config{IndexBits: 14, RowBits: 4*(1+64+32) + 8, KeyBits: 64, DataBits: 32, Index: hash.NewMultShift(14)})
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector(trace.Config{Slowlog: 10 * time.Millisecond})
	s := New(sub, WithWAL(w, res, 0), WithTracing(col))
	defer s.Close() //nolint:errcheck
	const n = 10_000
	var in strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&in, "INSERT db %x %x\n", uint64(i+1)*0x9e3779b97f4a7c15, i)
	}
	var out strings.Builder
	s.Handle(strings.NewReader(in.String()), &out)
	if want := strings.Repeat("OK\n", n); out.String() != want {
		t.Fatalf("replies %q..., want %d OKs", out.String()[:min(out.Len(), 80)], n)
	}
	if got := col.Slow().Total(); got != 0 {
		e := col.Slow().Snapshot(nil, 0)[0]
		t.Fatalf("%d slowlog entries, want none; the latest: %s %s took %v", got, e.Cmd, e.Key, e.Dur)
	}
}
