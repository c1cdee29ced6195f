package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"caram/internal/bitutil"
	"caram/internal/cluster"
)

// binaries are the two product programs the harness built.
type binaries struct {
	server, router string
}

// deployment is one set-up: the processes serving a workload, loaded
// and verified, up to the first timed request.
type deployment struct {
	front      string   // where the timed traffic is sent
	backends   []string // line-protocol addresses of the caram-servers
	metricsURL []string // their -http bases
	routerURL  string   // the router's -http base, "" when direct
	procs      []*proc  // servers, in backends order
	pids       pidSet
	fleet      *fleet

	serverArgs []string // mixed-wal: how to restart the server after a kill
	dataDir    string
	dataFS     string
	// walBytesAtCrash is the log's size on disk at the last SIGKILL.
	walBytesAtCrash float64

	setupSeconds float64
	// detail holds what set-up measured besides its own length
	// (wal.recover_s and friends), by metric name.
	detail map[string]float64
}

// serverFlags are common to every caram-server the harness starts. The
// observability defaults (tracing collector, 10 ms slowlog, metrics)
// stay as an operator would run them.
func serverFlags(sc scale) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-engines", "db",
		"-indexbits", fmt.Sprint(sc.indexBits), "-slots", fmt.Sprint(sc.slots),
	}
}

// deploy starts the processes a workload needs, loads them over the
// wire and verifies the load. Its duration is the workload's setup_s;
// go build is not in it.
func deploy(w *workload, bins binaries, snapshotEvery time.Duration) (*deployment, error) {
	start := time.Now()
	d := &deployment{fleet: &fleet{}, detail: make(map[string]float64)}
	track(d.fleet)
	ok := false
	defer func() {
		if !ok {
			d.fleet.close()
		}
	}()

	nServers := 1
	if w.routed {
		nServers = 2
	}
	args := serverFlags(w.sc)
	if w.wal {
		dir, fs, err := newDataDir()
		if err != nil {
			return nil, err
		}
		d.fleet.addDir(dir)
		d.dataDir, d.dataFS = dir, fs
		args = append(args, "-data", dir, "-wal-sync", "interval=5ms")
		d.serverArgs = append(append([]string(nil), args...), "-snapshot-every", snapshotEvery.String())
		// Snapshots stay off while preloading so the recovery that
		// follows replays exactly sc.keys records from the log.
		args = append(args, "-snapshot-every", "0")
	}
	for i := 0; i < nServers; i++ {
		p, err := startProc(fmt.Sprintf("caram-server[%d]", i), bins.server, args...)
		if err != nil {
			return nil, err
		}
		d.fleet.add(p)
		d.procs = append(d.procs, p)
	}
	d.refreshServers()
	d.front = d.backends[0]
	if w.routed {
		p, err := startProc("caram-router", bins.router,
			"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-backends", strings.Join(d.backends, ","))
		if err != nil {
			return nil, err
		}
		d.fleet.add(p)
		d.routerURL = p.http
		d.pids.router = p.pid()
		d.front = p.addr
	}

	if err := w.load(d.backends); err != nil {
		return nil, err
	}
	if w.wal {
		if err := d.crashAndRecover("wal.recover_boot_s"); err != nil {
			return nil, err
		}
		rec := d.procs[0].recovered()
		if want := fmt.Sprintf("replayed=%d ", w.sc.keys); !strings.Contains(rec+" ", want) {
			return nil, fmt.Errorf("recovery did not replay exactly %d records: %q", w.sc.keys, rec)
		}
		// The log held exactly the preload when it was killed, so its
		// size is a count: it repeats.
		d.detail["wal.bytes_per_record"] = d.walBytesAtCrash / float64(w.sc.keys)
	}
	if err := w.verifyLoad(d.front); err != nil {
		return nil, err
	}
	d.setupSeconds = time.Since(start).Seconds()
	ok = true
	return d, nil
}

// refreshServers re-reads addresses and pids after a (re)start.
func (d *deployment) refreshServers() {
	d.backends, d.metricsURL, d.pids.servers = nil, nil, nil
	for _, p := range d.procs {
		d.backends = append(d.backends, p.addr)
		d.metricsURL = append(d.metricsURL, p.http)
		d.pids.servers = append(d.pids.servers, p.pid())
	}
}

// crashAndRecover waits until every acked write is durable (the policy
// is interval=5ms: an ack may trail the fsync by that much, and the
// audit is about acked *and* durable state), SIGKILLs the server,
// restarts it on the same directory and records how long it took to
// serve again under `metric`.
func (d *deployment) crashAndRecover(metric string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		reply, err := wireCmd(d.backends[0], "WAL STATUS")
		if err != nil {
			return err
		}
		kv := parseKV(reply)
		if _, ok := kv["lsn"]; !ok {
			return fmt.Errorf("WAL STATUS: unexpected reply %q", reply)
		}
		if kv["lsn"] == kv["durable"] {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("WAL never became durable: %q", reply)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.walBytesAtCrash = d.walBytes()
	old := d.procs[0]
	old.stop()
	t0 := time.Now()
	p, err := startProc("caram-server[0]", old.bin, d.serverArgs...)
	if err != nil {
		return err
	}
	d.detail[metric] = time.Since(t0).Seconds()
	d.fleet.add(p)
	d.procs[0] = p
	d.refreshServers()
	d.front = d.backends[0]
	return nil
}

// walBytes sums the sizes of the WAL segment files in the data dir:
// the log as the filesystem sees it.
func (d *deployment) walBytes() float64 {
	ents, err := os.ReadDir(d.dataDir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return float64(n)
}

// load puts the workload's tables into the servers over the wire.
// Engine db shards across several backends the way the router will
// look keys up: by ring owner, with each backend's address as label.
func (w *workload) load(backends []string) error {
	if w.needsDB {
		ring, err := cluster.NewRing(backends, cluster.DefaultReplicas)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		// Two loader connections per backend, mirroring the timed shape.
		parts := make([][]byte, len(backends)*conns)
		counts := make([]int, len(parts))
		for i := 0; i < w.sc.keys; i++ {
			key := w.keys.key(i)
			b := 0
			if len(backends) > 1 {
				b = ring.Owner("db", bitutil.FromUint64(key))
			}
			slot := b*conns + i%conns
			p := parts[slot]
			p = append(p, "INSERT db "...)
			p = appendHex(p, key)
			p = append(p, ' ')
			p = appendHex(p, dataOf(key))
			parts[slot] = append(p, '\n')
			counts[slot]++
		}
		errs := make(chan error, len(parts))
		for slot := range parts {
			go func(slot int) {
				errs <- bulkOK(backends[slot/conns], parts[slot], counts[slot])
			}(slot)
		}
		var first error
		for range parts {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			return fmt.Errorf("preload db: %w", first)
		}
	}
	if w.typed != nil {
		if err := w.loadTyped(backends[0]); err != nil {
			return err
		}
	}
	return nil
}

// loadTyped creates the three typed engines over the wire and fills
// them. The geometry leaves every table under a third full, so no
// insert is refused; one that is fails the set-up loudly, because the
// replies were predicted from the whole table.
func (w *workload) loadTyped(addr string) error {
	req, n := w.typed.loadLines(w.sc)
	if err := bulkOK(addr, req, n); err != nil {
		return fmt.Errorf("load typed engines: %w", err)
	}
	return nil
}

// loadLines renders the request lines that create and fill the typed
// engines; every one must be answered "OK".
func (t *typedTables) loadLines(sc scale) (req []byte, n int) {
	bits := fmt.Sprint(sc.typedBits)
	add := func(line []byte) {
		req = append(append(req, line...), '\n')
		n++
	}
	add([]byte("CREATE ENGINE ip TYPE lpm INDEXBITS " + bits + " SLOTS 32"))
	add([]byte("CREATE ENGINE acl TYPE pktclass INDEXBITS " + bits + " SLOTS 64"))
	add([]byte("CREATE ENGINE tri TYPE trigram INDEXBITS " + bits + " SLOTS 32"))
	var line []byte
	for _, p := range t.prefixes {
		k := p.Key()
		line = append(line[:0], "MINSERT ip "...)
		line = appendHex(line, k.Value.Lo)
		line = append(line, ' ')
		line = appendHex(line, k.Mask.Lo)
		line = append(line, ' ')
		add(appendHex(line, lpmData(p)))
	}
	for i, r := range t.rules {
		for _, k := range t.ruleKeys[i] {
			line = append(line[:0], "MINSERT acl "...)
			line = appendVec(line, k.Value)
			line = append(line, ' ')
			line = appendVec(line, k.Mask)
			line = append(line, ' ')
			add(appendVec(line, pktclassData(r)))
		}
	}
	for _, e := range t.entries {
		line = append(line[:0], "TINSERT tri "...)
		line = appendHex(line, uint64(e.Score))
		line = append(line, ' ')
		add(append(line, e.Text...))
	}
	return req, n
}

// verifyLoad checks, through the address the timed traffic will use,
// that every table holds what was sent.
func (w *workload) verifyLoad(front string) error {
	check := func(engine string, want int) error {
		reply, err := wireCmd(front, "STATS "+engine)
		if err != nil {
			return err
		}
		if got, ok := parseKV(reply)["n"]; !ok || int(got) != want {
			return fmt.Errorf("STATS %s: %q, want n=%d", engine, reply, want)
		}
		return nil
	}
	if w.needsDB {
		if err := check("db", w.sc.keys); err != nil {
			return err
		}
	}
	if w.typed != nil {
		if err := check("tri", len(w.typed.entries)); err != nil {
			return err
		}
	}
	return nil
}

// bulkOK streams n request lines down one connection while reading the
// replies back, and requires every one to be "OK".
func bulkOK(addr string, req []byte, n int) error {
	conn, err := dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return err
	}
	werr := make(chan error, 1)
	go func() {
		_, err := conn.Write(req)
		werr <- err
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	var rerr error
	for i := 0; i < n; i++ {
		line, err := br.ReadSlice('\n')
		if err != nil {
			rerr = fmt.Errorf("reply %d of %d: %w", i, n, err)
			break
		}
		if !bytes.Equal(line, []byte("OK\n")) {
			rerr = fmt.Errorf("reply %d of %d: %q to %q", i, n, bytes.TrimSpace(line), nthLine(req, i))
			break
		}
	}
	if rerr != nil {
		conn.Close() // unblocks the writer
	}
	return errors.Join(rerr, <-werr)
}

func nthLine(b []byte, n int) []byte {
	for ; n > 0; n-- {
		at := bytes.IndexByte(b, '\n')
		if at < 0 {
			return nil
		}
		b = b[at+1:]
	}
	if at := bytes.IndexByte(b, '\n'); at >= 0 {
		b = b[:at]
	}
	return truncate(b)
}
