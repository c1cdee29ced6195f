package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/cluster"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
	zipfgen "caram/internal/workload"
)

// The ladder prices one SEARCH at every layer of the stack in one
// process on one machine: the search-direct table (same keys, same
// geometry) and connection 0's key stream, timed as batches of calls
// between two clock reads, the median batch reported per call. Each
// rung calls only the layer's public functions; a rung's self time is
// its value minus the rung below it (its span's parent).

// ladderCalls is the number of calls in one timed batch; the number of
// batches per rung is the scale's (100 at full scale).
const ladderCalls = 1024

type ladder struct {
	m  metricSet
	tr *tracer // nil: no spans
	sc scale
	ks keyspace

	// Connection 0's key stream, as keys and as SEARCH lines, with the
	// model's answer for each.
	keys    []uint64
	present []bool
	lines   []string

	// bad is the first wrong answer a timed closure saw. The ladder is a
	// measurement, but a rung that answers wrongly measures nothing.
	bad error
}

func (l *ladder) fail(format string, args ...any) {
	if l.bad == nil {
		l.bad = fmt.Errorf(format, args...)
	}
}

// fresh returns the i-th key that is never preloaded, for the rungs
// that insert and delete.
func (l *ladder) fresh(i int) uint64 { return l.ks.key(l.sc.keys + i) }

// rung times batches of `calls` invocations of fn and returns the
// median cost of one call in ns; spans are recorded under name. fn
// receives a running call number.
func (l *ladder) rung(name, parent string, calls int, fn func(i int)) float64 {
	per := make([]float64, l.sc.ladderBatches)
	n := 0
	for b := range per {
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			fn(n)
			n++
		}
		t1 := time.Now()
		per[b] = float64(t1.Sub(t0)) / float64(calls)
		l.span(name, parent, b, t0, t1)
	}
	return median(per)
}

func (l *ladder) span(name, parent string, batch int, t0, t1 time.Time) {
	if l.tr != nil {
		layer, _, _ := strings.Cut(name, ".")
		l.tr.spans = append(l.tr.spans, span{Layer: layer, Name: name, Parent: parent, Burst: batch, start: t0, end: t1})
	}
}

// pair times two alternating phases — do, then undo — so the table is
// the same size at the start of every batch (insert, then delete). It
// stores the median per call of each phase; undo may be unnamed.
func (l *ladder) pair(do, undo, parent string, doFn, undoFn func(i int)) {
	batches := l.sc.ladderBatches
	a, b := make([]float64, batches), make([]float64, batches)
	for i := range a {
		n := i * ladderCalls
		t0 := time.Now()
		for c := 0; c < ladderCalls; c++ {
			doFn(n + c)
		}
		t1 := time.Now()
		for c := 0; c < ladderCalls; c++ {
			undoFn(n + c)
		}
		t2 := time.Now()
		a[i] = float64(t1.Sub(t0)) / ladderCalls
		b[i] = float64(t2.Sub(t1)) / ladderCalls
		l.span(do, parent, i, t0, t1)
		if undo != "" {
			l.span(undo, parent, i, t1, t2)
		}
	}
	l.m[do] = median(a)
	if undo != "" {
		l.m[undo] = median(b)
	}
}

// premium prices what variant costs over base by timing the two
// alternately, batch by batch, and taking the median of the per-batch
// differences: the pair shares every host state, so the difference
// survives a drift that two medians taken minutes apart would not. The
// undo functions, when not nil, run untimed after their phase.
func (l *ladder) premium(name, parent string, base, variant, undoBase, undoVariant func(i int)) float64 {
	diff := make([]float64, l.sc.ladderBatches)
	phase := func(n int, do, undo func(i int)) (t0, t1 time.Time) {
		t0 = time.Now()
		for c := 0; c < ladderCalls; c++ {
			do(n + c)
		}
		t1 = time.Now()
		for c := 0; undo != nil && c < ladderCalls; c++ {
			undo(n + c)
		}
		return t0, t1
	}
	for b := range diff {
		b0, b1 := phase(b*ladderCalls, base, undoBase)
		v0, v1 := phase(b*ladderCalls, variant, undoVariant)
		diff[b] = float64(v1.Sub(v0)-b1.Sub(b0)) / ladderCalls
		l.span(name, parent, b, v0, v1)
	}
	return median(diff)
}

// allocsPer counts heap allocations per call from runtime.MemStats.
func allocsPer(calls int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls)
}

func exactKey(k uint64) bitutil.Ternary { return bitutil.Exact(bitutil.FromUint64(k)) }

func exactRec(k uint64) match.Record {
	return match.Record{Key: exactKey(k), Data: bitutil.FromUint64(dataOf(k))}
}

// dbConfig is the geometry caram-server gives an exact engine for the
// same -indexbits and -slots.
func dbConfig(sc scale) caram.Config {
	return caram.Config{
		IndexBits: sc.indexBits,
		RowBits:   sc.slots*(1+64+32) + 16,
		KeyBits:   64,
		DataBits:  32,
		AuxBits:   16,
		Index:     hash.NewMultShift(sc.indexBits),
	}
}

// runLadder builds the tables and climbs every rung. tr, when not nil,
// receives one span per batch.
func runLadder(seed int64, sc scale, tr *tracer) (metricSet, error) {
	l := &ladder{m: make(metricSet), tr: tr, sc: sc, ks: newKeyspace(seed)}

	// The search-direct table and the first keys connection 0 sends.
	sl, err := caram.New(dbConfig(sc))
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for i := 0; i < sc.keys; i++ {
		if err := sl.Insert(exactRec(l.ks.key(i))); err != nil {
			return nil, fmt.Errorf("ladder: preload: %w", err)
		}
	}
	n := sc.ladderBatches * ladderCalls
	w := &workload{sc: sc, keys: l.ks}
	rng := zipfgen.NewRand(seed*1000 + 1)
	l.keys, l.present, l.lines = make([]uint64, n), make([]bool, n), make([]string, n)
	for i := range l.keys {
		idx, ok := w.readIndex(rng)
		l.keys[i], l.present[i] = l.ks.key(idx), ok
		l.lines[i] = "SEARCH db " + string(appendHex(nil, l.keys[i]))
	}

	l.sliceRungs(sl)
	sub := subsystem.New(0)
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	l.subsystemRungs(sub)
	// srv is a server as caram-server configures one: metrics on, trace
	// collector attached, sampling off, 10 ms slowlog.
	srv := deployedServer(sub, 0)
	defer srv.Close()
	l.serverRungs(sub, srv)
	if err := l.typedRungs(seed, srv); err != nil {
		return nil, err
	}
	if err := l.walRungs(); err != nil {
		return nil, err
	}
	if err := l.clusterRungs(srv); err != nil {
		return nil, err
	}
	if l.bad != nil {
		return nil, fmt.Errorf("ladder: wrong answer: %w", l.bad)
	}
	return l.m, nil
}

func deployedServer(sub *subsystem.Subsystem, sampleN int) *server.Server {
	col := trace.NewCollector(trace.Config{SampleN: sampleN, Slowlog: 10 * time.Millisecond})
	return server.New(sub, server.WithTracing(col))
}

// sliceRungs: the index generator, one row through the comparator
// bank, and the lock-free probe chain with its exact row count beside
// the §3.4 expectation.
func (l *ladder) sliceRungs(sl *caram.Slice) {
	gen := hash.NewMultShift(l.sc.indexBits)
	var sink uint32
	l.m["hash.index_ns"] = l.rung("hash.index_ns", "", ladderCalls, func(i int) {
		sink += gen.Index(bitutil.FromUint64(l.keys[i]))
	})

	rows := make([][]uint64, len(l.keys))
	for i, k := range l.keys {
		rows[i] = sl.Array().PeekRow(sl.Index(bitutil.FromUint64(k)))
	}
	sr := match.NewSearcher(sl.Layout(), 0)
	var res match.Result
	l.m["match.binary_row_ns"] = l.rung("match.binary_row_ns", "hash.index_ns", ladderCalls, func(i int) {
		sr.SearchInto(&res, rows[i], exactKey(l.keys[i]))
	})

	rd := sl.NewReader()
	rowsRead := 0
	l.m["caram.lookup_ns"] = l.rung("caram.lookup_ns", "match.binary_row_ns", ladderCalls, func(i int) {
		r, ok := rd.Lookup(exactKey(l.keys[i]), nil)
		if !ok || r.Found != l.present[i] {
			l.fail("caram.Reader.Lookup(%x): found=%v certified=%v, want found=%v", l.keys[i], r.Found, ok, l.present[i])
		}
		rowsRead += r.RowsRead
	})
	l.m["caram.rows_per_lookup"] = float64(rowsRead) / float64(len(l.keys))
	l.m["caram.expected_rows_per_lookup"] = sl.ExpectedRows()
	l.pair("caram.insert_ns", "caram.delete_ns", "match.binary_row_ns",
		func(i int) {
			if err := sl.Insert(exactRec(l.fresh(i))); err != nil {
				l.fail("caram.Slice.Insert: %v", err)
			}
		},
		func(i int) {
			if err := sl.Delete(exactKey(l.fresh(i))); err != nil {
				l.fail("caram.Slice.Delete: %v", err)
			}
		})
}

// subsystemRungs: the per-engine concurrency layer over the same slice.
func (l *ladder) subsystemRungs(sub *subsystem.Subsystem) {
	con := subsystem.NewConcurrent(sub)
	defer con.Close()
	l.m["subsystem.search_ns"] = l.rung("subsystem.search_ns", "caram.lookup_ns", ladderCalls, func(i int) {
		r, err := con.Search("db", exactKey(l.keys[i]))
		if err != nil || r.Found != l.present[i] {
			l.fail("Concurrent.Search(%x): found=%v err=%v", l.keys[i], r.Found, err)
		}
	})
	l.pair("subsystem.insert_ns", "subsystem.delete_ns", "caram.insert_ns",
		func(i int) {
			if err := con.Insert("db", exactRec(l.fresh(i))); err != nil {
				l.fail("Concurrent.Insert: %v", err)
			}
		},
		func(i int) {
			if err := con.Delete("db", exactKey(l.fresh(i))); err != nil {
				l.fail("Concurrent.Delete: %v", err)
			}
		})
	batch := make([]subsystem.PortKey, msearchKeys)
	msearch := func(i int) {
		at := i * msearchKeys % (len(l.keys) - msearchKeys)
		for j := range batch {
			batch[j] = subsystem.PortKey{Port: "db", Key: exactKey(l.keys[at+j])}
		}
		out := con.MSearch(batch)
		if out[0].Err != nil || out[0].Result.Found != l.present[at] {
			l.fail("Concurrent.MSearch: slot 0 found=%v err=%v", out[0].Result.Found, out[0].Err)
		}
	}
	l.m["subsystem.msearch64_ns_per_key"] = l.rung("subsystem.msearch64_ns_per_key", "caram.lookup_ns", ladderCalls/msearchKeys, msearch) / msearchKeys
	l.m["subsystem.msearch64_allocs"] = allocsPer(ladderCalls/msearchKeys, msearch)
}

// serverRungs: the protocol engine without a socket — ExecAppend bare,
// with the metrics registry, as deployed, and with sampling on — and
// then a whole connection through Handle over in-memory buffers.
func (l *ladder) serverRungs(sub *subsystem.Subsystem, srv *server.Server) {
	bare := server.New(sub, server.WithoutMetrics())
	defer bare.Close()
	metered := server.New(sub)
	defer metered.Close()
	sampled := deployedServer(sub, 16)
	defer sampled.Close()

	dst := make([]byte, 0, 64*1024)
	execSearch := func(s *server.Server) func(i int) {
		return func(i int) {
			dst = s.ExecAppend(dst[:0], l.lines[i])
			if (dst[0] == 'H') != l.present[i] {
				l.fail("ExecAppend(%q) = %q", l.lines[i], dst)
			}
		}
	}
	l.m["server.exec_search_bare_ns"] = l.rung("server.exec_search_bare_ns", "subsystem.search_ns", ladderCalls, execSearch(bare))
	l.m["server.exec_search_ns"] = l.rung("server.exec_search_ns", "server.exec_search_bare_ns", ladderCalls, execSearch(srv))
	l.m["metrics.search_premium_ns"] = l.premium("metrics.search_premium_ns", "server.exec_search_bare_ns", execSearch(bare), execSearch(metered), nil, nil)
	l.m["trace.sampled_search_premium_ns"] = l.premium("trace.sampled_search_premium_ns", "server.exec_search_ns", execSearch(srv), execSearch(sampled), nil, nil)
	l.m["server.exec_search_allocs"] = allocsPer(ladderCalls, execSearch(srv))

	n := len(l.keys)
	insertLines, deleteLines := make([]string, n), make([]string, n)
	for i := range insertLines {
		k := string(appendHex(nil, l.fresh(i)))
		insertLines[i] = "INSERT db " + k + " " + string(appendHex(nil, dataOf(l.fresh(i))))
		deleteLines[i] = "DELETE db " + k
	}
	execOK := func(reqs []string) func(i int) {
		return func(i int) {
			if dst = srv.ExecAppend(dst[:0], reqs[i]); string(dst) != "OK" {
				l.fail("ExecAppend(%q) = %q", reqs[i], dst)
			}
		}
	}
	l.pair("server.exec_insert_ns", "", "subsystem.insert_ns", execOK(insertLines), execOK(deleteLines))

	msLines := make([]string, n/msearchKeys)
	for i := range msLines {
		var b strings.Builder
		b.WriteString("MSEARCH")
		for _, k := range l.keys[i*msearchKeys : (i+1)*msearchKeys] {
			b.WriteString(" db ")
			b.Write(appendHex(nil, k))
		}
		msLines[i] = b.String()
	}
	l.m["server.exec_msearch64_ns_per_key"] = l.rung("server.exec_msearch64_ns_per_key", "subsystem.msearch64_ns_per_key", ladderCalls/msearchKeys, func(i int) {
		dst = srv.ExecAppend(dst[:0], msLines[i%len(msLines)])
		if !bytes.HasPrefix(dst, []byte("MRESULTS ")) {
			l.fail("ExecAppend(MSEARCH) = %q", truncate(dst))
		}
	}) / msearchKeys

	// Handle: line reader, ExecAppend, one reply write per 16-line burst.
	bursts := make([][]byte, n/pipelineDepth)
	for b := range bursts {
		for _, line := range l.lines[b*pipelineDepth : (b+1)*pipelineDepth] {
			bursts[b] = append(append(bursts[b], line...), '\n')
		}
	}
	perBatch := ladderCalls / pipelineDepth
	var replies countWriter
	l.m["server.handle_depth16_ns_per_op"] = l.rung("server.handle_depth16_ns_per_op", "server.exec_search_ns", 1, func(i int) {
		srv.Handle(&burstReader{bursts: bursts[i*perBatch : (i+1)*perBatch]}, &replies)
	}) / ladderCalls
	if replies.lines != n {
		l.fail("Server.Handle answered %d lines, want %d", replies.lines, n)
	}
}

// burstReader hands Handle one burst per Read, the way a socket
// delivers a pipelining client's flushes, so Handle's "reply when the
// read buffer drains" fires once per burst.
type burstReader struct {
	bursts [][]byte
	at     int
}

func (b *burstReader) Read(p []byte) (int, error) {
	if b.at == len(b.bursts) {
		return 0, io.EOF
	}
	n := copy(p, b.bursts[b.at])
	b.at++
	return n, nil
}

type countWriter struct{ lines int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// typedRungs prices the three typed read paths through ExecAppend, and
// the ternary kernel and LookupBest below them on an lpm engine built
// from the same prefixes.
func (l *ladder) typedRungs(seed int64, srv *server.Server) error {
	tw, err := newWorkload("typed-search", seed, l.sc)
	if err != nil {
		return err
	}
	req, _ := tw.typed.loadLines(l.sc)
	dst := make([]byte, 0, 256)
	for _, line := range strings.Split(strings.TrimSuffix(string(req), "\n"), "\n") {
		if dst = srv.ExecAppend(dst[:0], line); string(dst) != "OK" {
			return fmt.Errorf("ladder: %q = %q", line, dst)
		}
	}
	// Sort connection 0's typed stream by verb; each rung replays its
	// own kind against the replies the oracles predicted.
	var reqs, wants [3][]string
	st := tw.streams[0]
	reqLines := strings.Split(strings.TrimSuffix(string(st.req), "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(st.want), "\n"), "\n")
	for i, line := range reqLines {
		kind := 2
		switch {
		case strings.HasPrefix(line, "SEARCH ip "):
			kind = 0
		case strings.HasPrefix(line, "SEARCH acl "):
			kind = 1
		}
		reqs[kind] = append(reqs[kind], line)
		wants[kind] = append(wants[kind], wantLines[i])
	}
	for kind, name := range []string{"server.exec_lpm_ns", "server.exec_pktclass_ns", "server.exec_tsearch_ns"} {
		rq, wt := reqs[kind], wants[kind]
		l.m[name] = l.rung(name, "caram.lookup_best_ns", ladderCalls, func(i int) {
			i %= len(rq)
			if dst = srv.ExecAppend(dst[:0], rq[i]); string(dst) != wt[i] {
				l.fail("ExecAppend(%q) = %q, want %q", rq[i], dst, wt[i])
			}
		})
	}

	eng, err := subsystem.NewTypedEngine("ip", subsystem.LPMEngine, subsystem.TypedConfig{IndexBits: l.sc.typedBits, Slots: 32})
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for _, p := range tw.typed.prefixes {
		if err := eng.Insert(match.Record{Key: p.Key(), Data: bitutil.FromUint64(lpmData(p))}, nil); err != nil {
			return fmt.Errorf("ladder: lpm insert %v: %w", p, err)
		}
	}
	addrs := make([]bitutil.Ternary, len(reqs[0]))
	rows := make([][]uint64, len(addrs))
	for i, line := range reqs[0] {
		var a uint64
		if _, err := fmt.Sscanf(line, "SEARCH ip %x", &a); err != nil {
			return fmt.Errorf("ladder: %q: %w", line, err)
		}
		addrs[i] = exactKey(a)
		rows[i] = eng.Main.Array().PeekRow(eng.Main.Index(addrs[i].Value))
	}
	sr := match.NewSearcher(eng.Main.Layout(), 0)
	var res match.Result
	l.m["match.ternary_row_ns"] = l.rung("match.ternary_row_ns", "hash.index_ns", ladderCalls, func(i int) {
		i %= len(addrs)
		sr.SearchInto(&res, rows[i], addrs[i])
	})
	rd := eng.Main.NewReader()
	l.m["caram.lookup_best_ns"] = l.rung("caram.lookup_best_ns", "match.ternary_row_ns", ladderCalls, func(i int) {
		i %= len(addrs)
		r, ok := rd.LookupBest(addrs[i], eng.Score, nil)
		if !ok || r.Found != (wants[0][i] != "MISS") {
			l.fail("Reader.LookupBest(%x): found=%v certified=%v, oracle %q", addrs[i].Value.Lo, r.Found, ok, wants[0][i])
		}
	})
	return nil
}

// walRungs prices durability: the journal alone, the journal under
// Concurrent.Insert, recovery of a full log, and a snapshot of the
// full table. The directory is on tmpfs when there is one.
func (l *ladder) walRungs() error {
	dir, _, err := newDataDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncInterval, Interval: 5 * time.Millisecond}}
	// open recovers dir/sub into a fresh engine db and wires the
	// mutation path a live server uses.
	open := func(sub string) (*subsystem.Concurrent, *wal.Log, *wal.RecoverResult, error) {
		boot, err := subsystem.NewTypedEngine("db", subsystem.ExactEngine, subsystem.TypedConfig{IndexBits: l.sc.indexBits, Slots: l.sc.slots})
		if err != nil {
			return nil, nil, nil, err
		}
		w, rec, err := wal.Recover(filepath.Join(dir, sub), []*subsystem.Engine{boot}, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		s := subsystem.New(0)
		for _, e := range rec.Engines {
			if err := s.AddEngine(e); err != nil {
				return nil, nil, nil, err
			}
		}
		return subsystem.NewConcurrent(s).SetJournal(w, rec.RosterLSN), w, rec, nil
	}

	// The journal alone, in a directory of its own so these records
	// never meet an engine.
	jcon, jl, _, err := open("journal")
	if err != nil {
		return fmt.Errorf("ladder: wal: %w", err)
	}
	l.m["wal.append_commit_ns"] = l.rung("wal.append_commit_ns", "", ladderCalls, func(i int) {
		lsn, err := jl.Append(subsystem.JournalEntry{Op: subsystem.JournalInsert, Engine: "db", Rec: exactRec(l.ks.key(i))})
		if err == nil {
			err = jl.Commit(lsn)
		}
		if err != nil {
			l.fail("wal append+commit: %v", err)
		}
	})
	jcon.Close()
	if err := jl.Seal(); err != nil {
		return fmt.Errorf("ladder: wal seal: %w", err)
	}

	// Two tables of sc.keys records, one journaled and one not, and the
	// premium of an insert into the first over the second.
	con, w, _, err := open("table")
	if err != nil {
		return fmt.Errorf("ladder: wal: %w", err)
	}
	sub := subsystem.New(0)
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: caram.MustNew(dbConfig(l.sc))}); err != nil {
		return fmt.Errorf("ladder: wal: %w", err)
	}
	plain := subsystem.NewConcurrent(sub)
	defer plain.Close()
	for i := 0; i < l.sc.keys; i++ {
		for _, c := range []*subsystem.Concurrent{con, plain} {
			if err := c.Insert("db", exactRec(l.ks.key(i))); err != nil {
				return fmt.Errorf("ladder: wal preload: %w", err)
			}
		}
	}
	insert := func(c *subsystem.Concurrent) func(i int) {
		return func(i int) {
			if err := c.Insert("db", exactRec(l.fresh(i))); err != nil {
				l.fail("Concurrent.Insert beside the journal: %v", err)
			}
		}
	}
	remove := func(c *subsystem.Concurrent) func(i int) {
		return func(i int) {
			if err := c.Delete("db", exactKey(l.fresh(i))); err != nil {
				l.fail("Concurrent.Delete beside the journal: %v", err)
			}
		}
	}
	l.m["wal.insert_premium_ns"] = l.premium("wal.insert_premium_ns", "subsystem.insert_ns", insert(plain), insert(con), remove(plain), remove(con))
	records := float64(w.LastLSN())
	con.Close()
	if err := w.Seal(); err != nil {
		return fmt.Errorf("ladder: wal seal: %w", err)
	}

	// Recovery replays the whole log: there is no snapshot yet.
	t0 := time.Now()
	con, w, rec, err := open("table")
	if err != nil {
		return fmt.Errorf("ladder: wal recover: %w", err)
	}
	t1 := time.Now()
	defer con.Close()
	l.span("wal.recover_s", "", 0, t0, t1)
	if float64(rec.Replayed) != records {
		return fmt.Errorf("ladder: wal recover replayed %d of %.0f records", rec.Replayed, records)
	}
	l.m["wal.recover_s"] = t1.Sub(t0).Seconds()
	l.m["wal.recover_us_per_record"] = t1.Sub(t0).Seconds() * 1e6 / records

	t0 = time.Now()
	if err := w.Snapshot(con.SnapshotImage); err != nil {
		return fmt.Errorf("ladder: wal snapshot: %w", err)
	}
	t1 = time.Now()
	l.span("wal.snapshot_s", "", 0, t0, t1)
	l.m["wal.snapshot_s"] = t1.Sub(t0).Seconds()
	snaps, err := filepath.Glob(filepath.Join(dir, "table", "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		return fmt.Errorf("ladder: wal snapshot: found %d snapshot files (%v)", len(snaps), err)
	}
	fi, err := os.Stat(snaps[0])
	if err != nil {
		return fmt.Errorf("ladder: wal snapshot: %w", err)
	}
	l.m["wal.snapshot_mb"] = float64(fi.Size()) / (1 << 20)
	return w.Seal()
}

// clusterRungs prices the router's two building blocks: the ring
// lookup, and one unpipelined round trip through a backend pool to srv
// served on loopback. It closes srv.
func (l *ladder) clusterRungs(srv *server.Server) error {
	ring, err := cluster.NewRing([]string{"127.0.0.1:7071", "127.0.0.1:7072"}, cluster.DefaultReplicas)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	owners := 0
	l.m["cluster.ring_owner_ns"] = l.rung("cluster.ring_owner_ns", "", ladderCalls, func(i int) {
		owners += ring.Owner("db", bitutil.FromUint64(l.keys[i]))
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	pool := cluster.NewPool(cluster.Backend{Label: addr, Addr: addr}, cluster.PoolConfig{})
	reqs := make([][]byte, len(l.lines))
	for i, s := range l.lines {
		reqs[i] = []byte(s + "\n")
	}
	// A round trip is ~50 times a SEARCH: a sixteenth of the calls keeps
	// the rung near a second.
	l.m["cluster.pool_rtt_us"] = l.rung("cluster.pool_rtt_us", "server.exec_search_ns", ladderCalls/16, func(i int) {
		call := pool.Submit(reqs[i])
		if resp, err := call.Wait(); err != nil || len(resp) == 0 {
			l.fail("Pool.Submit(%q): %q, %v", l.lines[i], resp, err)
		}
		call.Release()
	}) / 1e3
	pool.Close()
	if err := srv.Close(); err != nil { // ends Serve
		return fmt.Errorf("ladder: %w", err)
	}
	<-served
	return nil
}
