// Command caram-server exposes a CA-RAM subsystem over TCP with the
// line protocol of internal/server — the accelerator as a lookup
// service. It starts one empty engine per element of -engines, where
// each element is name or name:type — exact (the default: 64-bit
// keys, 32-bit data), lpm (32-bit ternary longest-prefix match),
// pktclass (104-bit ternary 5-tuple classification), or trigram
// (128-bit text keys). Clients populate and query them, and can add
// or remove engines at runtime with CREATE ENGINE / DROP ENGINE.
// Requests to distinct engines execute in parallel (the per-engine
// locking model of internal/subsystem's Concurrent layer), so
// pointing hot traffic at several engines scales with cores.
//
// With -http the server also exposes its observability surface: the
// Prometheus families README.md catalogues on /metrics, Go's memstats on
// /debug/vars, pprof under /debug/pprof/, and the tracing layer's
// retained requests as JSON on /debug/traces.
//
// Tracing is always on and decided on admission: the per-request cost
// is one atomic add and the clock read that also times the request for
// /metrics. -trace-sample traces every Nth request as it runs, with
// every span (parse, lock_wait, probe chain, match, encode, wal_append),
// into the sampled ring, as a *TID annotation does into the tagged one.
// -slowlog-us sets the slowlog latency threshold in microseconds —
// every request slower than that is retained and logged at Warn, its
// entry built after the fact unless it was sampled or tagged: identity,
// result, rows and the buckets probed, and a write's wal_append, but no
// parse, lock_wait or encode span. The wire commands SLOWLOG and
// EXPLAIN read the same state.
//
// Fault tolerance is opt-in. -ecc arms per-row error coding on every
// engine: each fetched row is verified against a SECDED-style check
// word, single-bit errors are corrected in place, uncorrectable rows
// are quarantined (lookups answer the explicit "MISS!" instead of
// silently missing) and restored by HEALTH <engine> SCRUB over the
// wire. The HEALTH command and the caram_engine_health /metrics gauge
// expose each engine's healthy/degraded/failed state. -fault-seed
// installs a deterministic soft-error injector per engine (bit flips,
// transient read errors, latency spikes at the -fault-* rates) — the
// chaos-testing mode; combine it with -ecc to watch the error coding
// absorb the faults.
//
// Durability is opt-in with -data <dir>: every acknowledged mutation
// is journaled to a segmented write-ahead log under the -wal-sync
// policy (always fsyncs before each ack; interval=<d> group-commits on
// a timer; never leaves fsync to segment boundaries), periodic
// snapshots (-snapshot-every) stream a copy-on-write freeze of each
// engine's table while writes carry on, then truncate sealed segments, and boot recovers the latest snapshot plus
// the WAL tail — truncating, never replaying, a torn final record.
// The WAL STATUS wire command and the caram_wal_* /metrics families
// expose the commit horizon.
//
// Overload protection is opt-in too: -max-conns sheds connections
// beyond the cap with one "ERR BUSY" line; -read-timeout and
// -idle-timeout arm the per-connection read deadlines (slow-loris
// defense) described in internal/server.
//
// Logging goes to stderr as structured log/slog lines; -log-level
// picks the floor (debug adds connection lifecycle events).
//
//	caram-server -addr :7070 -http :9090 -engines db,ip:lpm,tri:trigram -slowlog-us 500 &
//	printf 'INSERT db dead 42\nEXPLAIN SEARCH db dead\nSLOWLOG LEN\n' | nc localhost 7070
//	curl -s localhost:9090/debug/traces | head
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// handlers drain, and the process exits 0.
package main

import (
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"caram/internal/fault"
	"caram/internal/metrics"
	"caram/internal/server"
	"caram/internal/subsystem"
	"caram/internal/trace"
	"caram/internal/wal"
	"caram/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		httpAddr = flag.String("http", "", "optional HTTP listen address for /metrics, /debug/vars (Go memstats), /debug/pprof, /debug/traces")
		rbits    = flag.Int("indexbits", 12, "index bits per engine (2^n buckets)")
		slots    = flag.Int("slots", 8, "keys per bucket")
		engines  = flag.String("engines", "db", "comma-separated engines, each name or name:type (exact, lpm, pktclass, trigram); requests to distinct engines run in parallel")
		logLevel = flag.String("log-level", "info", "log floor: debug, info, warn, error")
		tracing  = trace.Flags(flag.CommandLine,
			"trace every Nth request as it runs, with every span, into the sampled trace ring (0 = off)",
			"slowlog threshold in microseconds; a request slower than this is retained, built after the fact unless sampled or *TID-tagged: identity, result, rows, buckets probed, wal_append; no parse/lock_wait/encode spans (-1 = off)")

		eccOn    = flag.Bool("ecc", false, "enable per-row error coding: SECDED check words, quarantine, HEALTH <engine> SCRUB recovery")
		maxConns = flag.Int("max-conns", 0, "cap on concurrently served connections; excess accepts are shed with ERR BUSY (0 = unlimited)")
		readTO   = flag.Duration("read-timeout", 0, "per-read deadline once a request has started arriving (slow-loris defense; 0 = none)")
		idleTO   = flag.Duration("idle-timeout", 0, "deadline for the start of the next request on an idle connection (0 = none)")

		dataDir     = flag.String("data", "", "durability directory: WAL segments + snapshots; boot recovers the latest snapshot and replays the log tail (empty = no durability)")
		walSync     = flag.String("wal-sync", "always", "WAL sync policy: always (fsync before every ack), interval=<d> (group fsync on a timer), never (fsync only at segment roll/seal)")
		walSegBytes = flag.Int64("wal-segment-bytes", 0, "WAL segment size before rolling to a new file (0 = 64 MiB default)")
		snapEvery   = flag.Duration("snapshot-every", time.Minute, "interval between background snapshots (which truncate sealed WAL segments); 0 disables periodic snapshots")
		walSlowSync = flag.Duration("wal-slow-sync", 0, "test hook: sleep this long at the start of every WAL flush (widens the crash window for the kill harness)")

		faultSeed    = flag.Int64("fault-seed", 0, "install a deterministic soft-error injector per engine, seeded with this base (0 = off)")
		faultSingle  = flag.Float64("fault-single", 0.001, "per-fetch single-bit-flip probability when -fault-seed is set")
		faultDouble  = flag.Float64("fault-double", 0, "per-fetch double-bit-flip (uncorrectable) probability when -fault-seed is set")
		faultReadErr = flag.Float64("fault-readerr", 0, "per-fetch transient row-read-failure probability when -fault-seed is set")
		faultSpike   = flag.Float64("fault-spike", 0, "per-fetch latency-spike probability when -fault-seed is set")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	if *faultSeed != 0 && !*eccOn {
		logger.Warn("fault injection without -ecc: corrupted rows will serve wrong data undetected")
	}
	names := strings.Split(*engines, ",")
	sub := subsystem.New(0)
	var bootstrap []*subsystem.Engine
	var rows, perRow int
	for i, name := range names {
		name = strings.TrimSpace(name)
		// Each -engines element is name or name:type (exact, the default,
		// lpm, pktclass, trigram), built as CREATE ENGINE builds one.
		typ := subsystem.ExactEngine
		if at := strings.IndexByte(name, ':'); at >= 0 {
			var err error
			if typ, err = subsystem.ParseEngineType(name[at+1:]); err != nil {
				logger.Error("bad -engines element", "element", name, "err", err)
				os.Exit(1)
			}
			name = name[:at]
		}
		if name == "" {
			logger.Error("empty engine name in -engines")
			os.Exit(1)
		}
		e, err := subsystem.NewTypedEngine(name, typ, subsystem.TypedConfig{
			IndexBits: *rbits,
			Slots:     *slots,
			ECC:       *eccOn,
		})
		if err != nil {
			logger.Error("engine config", "engine", name, "err", err)
			os.Exit(1)
		}
		if *faultSeed != 0 {
			// One injector per engine, derived deterministically from
			// the base seed, so a run is reproducible end to end.
			inj := fault.New(fault.Config{
				Seed:     *faultSeed + int64(i),
				PSingle:  *faultSingle,
				PDouble:  *faultDouble,
				PReadErr: *faultReadErr,
				PSpike:   *faultSpike,
			})
			e.Main.Array().InstallFaults(inj)
			inj.Enable()
		}
		bootstrap = append(bootstrap, e)
		rows, perRow = e.Main.Config().Rows(), e.Main.Config().Slots()
	}

	// With -data, boot goes through recovery: the latest valid snapshot
	// overlays the flag-configured roster (geometry-compatible images
	// load in place, preserving any fault injector), the WAL tail
	// replays over it, and a torn tail record is truncated, never
	// applied. Without -data the bootstrap roster serves as-is and
	// nothing survives a restart.
	roster := bootstrap
	var w *wal.Log
	var rec *wal.RecoverResult
	if *dataDir != "" {
		pol, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			logger.Error("bad -wal-sync", "value", *walSync, "err", err)
			os.Exit(2)
		}
		w, rec, err = wal.Recover(*dataDir, bootstrap, wal.Options{
			Sync:         pol,
			SegmentBytes: *walSegBytes,
			SlowSync:     *walSlowSync,
		})
		if err != nil {
			logger.Error("wal recovery", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		roster = rec.Engines
		logger.Info("wal recovered",
			"dir", *dataDir,
			"snapshot_lsn", rec.SnapshotLSN,
			"last_lsn", rec.LastLSN,
			"replayed", rec.Replayed,
			"dropped", rec.Dropped,
			"truncated_bytes", rec.TruncatedBytes,
			"clean_shutdown", rec.CleanShutdown,
			"sync", pol.String())
		for _, err := range rec.DroppedFirst {
			logger.Warn("wal replay dropped a record", "err", err)
		}
	}
	for _, e := range roster {
		if err := sub.AddEngine(e); err != nil {
			logger.Error("add engine", "engine", e.Name, "err", err)
			os.Exit(1)
		}
	}

	tcfg := tracing()
	col := trace.NewCollector(tcfg)
	srvOpts := []server.Option{server.WithTracing(col), server.WithLogger(logger),
		server.WithLimits(wire.Limits{MaxConns: *maxConns, ReadTimeout: *readTO, IdleTimeout: *idleTO})}
	if w != nil {
		srvOpts = append(srvOpts, server.WithWAL(w, rec, *snapEvery))
	}
	srv := server.New(sub, srvOpts...)

	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Error("http listen", "addr", *httpAddr, "err", err)
			os.Exit(1)
		}
		logger.Info("http endpoints up",
			"metrics", "http://"+hl.Addr().String()+"/metrics",
			"traces", "http://"+hl.Addr().String()+"/debug/traces")
		h := metrics.Handler(srv.Exposition(), metrics.WithHandler("/debug/traces", col.Handler(nil)))
		go func() {
			if err := http.Serve(hl, h); err != nil {
				logger.Error("http serve", "err", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}

	// Install the handler before announcing "serving": a supervisor
	// that reacts to that line may signal immediately, and a SIGTERM
	// landing before Notify would kill the process with no drain, no
	// final snapshot, and no seal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		s := <-sig
		logger.Info("shutting down", "signal", s.String())
		if err := srv.Close(); err != nil {
			logger.Error("close", "err", err)
		}
	}()

	logger.Info("serving",
		"engines", len(names),
		"names", strings.Join(names, ","),
		"buckets", rows,
		"slots", perRow,
		"addr", l.Addr().String(),
		"slowlog_us", tcfg.Slowlog.Microseconds(),
		"trace_sample", tcfg.SampleN,
		"ecc", *eccOn,
		"fault_seed", *faultSeed,
		"max_conns", *maxConns,
		"data", *dataDir)

	err = srv.Serve(l)
	switch {
	case errors.Is(err, server.ErrServerClosed):
		// Serve unblocks as soon as the listener drops; Close is still
		// draining handlers, snapshotting, and sealing the WAL. Exiting
		// now would turn every graceful shutdown into a crash recovery.
		<-closeDone
	case err != nil:
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("bye")
}
