// Command caram-router puts N caram-server backends behind one
// endpoint speaking the same line protocol (internal/server) on both
// sides — the cluster tier of the CA-RAM lookup service. Exact-engine
// keys shard onto backends by consistent hashing over <engine, key>
// (a deterministic virtual-node ring, internal/cluster.Ring); typed
// engines (lpm, pktclass, trigram) and anything listed in -pin live
// wholly on their home backend, because prefix/priority/ranking
// semantics are only correct over the whole rule set. MSEARCH fans
// out scatter/gather: the pair list splits by ring owner, one
// pipelined MSEARCH goes to each involved backend concurrently, and
// the slots reassemble in the caller's original order.
//
// Each backend is reached over a pipelined connection pool (-conns
// persistent connections, each dial bounded at 2 s). The router pays
// per burst, not per line: the requests one client pipelined are
// appended to one batch per backend, each batch costs one queue
// operation and one completion signal, concurrently arriving batches
// coalesce into one buffered write — the network form of the server's
// own batch pipeline — and replies match waiting batches in FIFO
// pipeline order. The forward path allocates nothing in steady state.
//
// Failures degrade loudly, never wrongly: a dead backend trips its
// circuit breaker (-breaker-threshold consecutive failures, open for
// -breaker-backoff), requests shed fast with "ERR unavailable"
// (MSEARCH slots: "ERR:unavailable"), idempotent reads that died
// in-flight retry up to -retries times on a fresh connection (the first
// after 2 ms, doubling), and the health watcher probes HEALTH every
// -health-interval (each probe bounded at 1 s) to detect death and
// recovery ahead of client traffic. The ring has
// cluster.DefaultReplicas virtual nodes per backend, the value
// caram-load's preload assumes.
//
// The router is always metered and always tracing; the flags set the
// policies, not whether the machinery runs. With -http it exposes its
// per-backend observability on /metrics (ops, errors, retries, breaker
// state, pipeline depth, and the burst-size histogram that shows
// coalescing at work) plus Go's memstats on /debug/vars, the standard
// pprof endpoints and /debug/traces.
//
// The router traces on admission (-trace-sample, -slowlog-us,
// -trace-ring mirror the server flags), under one rule: a tier tags a
// downstream request only when the trace is already certain to be
// kept. -trace-sample N decides at dispatch: every Nth request is
// forwarded with a *TID annotation, and its backend traces become the
// entry's children on /debug/traces (router queue wait and RTT next to
// backend lock wait and probe chains) — this is the flag that
// stitches. -slowlog-us decides at settle: a request that turned out
// slow gets the router's own spans and the backend index, built after
// the fact, and no child; each tier's slowlog catches what was slow
// there. /debug/traces is the server's document (the same policy, ring
// and entry shape) plus those children. The SLOWLOG / METRICS / TRACE
// wire commands answer fleet-wide — slowlogs scatter/gather-merge by
// latency with node= provenance, counters sum, latency histograms
// merge bucket-wise.
//
//	caram-server -addr 127.0.0.1:7071 &
//	caram-server -addr 127.0.0.1:7072 &
//	caram-router -addr :7070 -backends 127.0.0.1:7071,127.0.0.1:7072 -http :9091 &
//	printf 'INSERT db dead 42\nSEARCH db dead\nMSEARCH db dead db beef\n' | nc localhost 7070
//
// SIGINT/SIGTERM shut down gracefully: listeners close, every burst a
// connection had already sent is forwarded, settled and answered, then
// the pools close and the process exits 0.
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

	"caram/internal/cluster"
	"caram/internal/metrics"
	"caram/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		backends = flag.String("backends", "", "comma-separated backend addresses (host:port), required; also their ring labels")
		pin      = flag.String("pin", "", "comma-separated engine names pinned whole to their home backend (typed engines created through the router pin automatically)")
		conns    = flag.Int("conns", 4, "pipelined connections per backend")
		httpAddr = flag.String("http", "", "optional HTTP listen address for /metrics, /debug/vars (Go memstats), /debug/pprof, /debug/traces")
		logLevel = flag.String("log-level", "info", "log floor: debug, info, warn, error")

		retries = flag.Int("retries", 2, "resubmissions for idempotent reads whose connection died in-flight")

		breakerThreshold = flag.Int("breaker-threshold", 3, "consecutive transport failures that open a backend's circuit breaker")
		breakerBackoff   = flag.Duration("breaker-backoff", 250*time.Millisecond, "how long an open breaker sheds before the next half-open attempt")
		healthInterval   = flag.Duration("health-interval", time.Second, "HEALTH probe period per backend (0 = watcher off)")

		tracing = trace.Flags(flag.CommandLine,
			"trace 1 in N proxied requests, chosen at dispatch: forwards carry a *TID tag and /debug/traces stitches the backend children (0 = off)",
			"router slowlog threshold in microseconds: slower requests keep the router's own spans, built at settle, with no backend child (-1 = off)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	bks, err := cluster.ParseBackends(*backends)
	if err != nil {
		logger.Error("bad -backends", "err", err)
		os.Exit(2)
	}
	labels := make([]string, len(bks))
	for i, b := range bks {
		labels[i] = b.Label
	}
	var pins []string
	if *pin != "" {
		for _, name := range strings.Split(*pin, ",") {
			if name = strings.TrimSpace(name); name != "" {
				pins = append(pins, name)
			}
		}
	}

	col := trace.NewCollector(tracing())
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:         bks,
		Pin:              pins,
		Conns:            *conns,
		BreakerThreshold: *breakerThreshold,
		BreakerBackoff:   *breakerBackoff,
		Retries:          *retries,
		HealthInterval:   *healthInterval,
		Logger:           logger,
		Tracing:          col,
	})
	if err != nil {
		logger.Error("router config", "err", err)
		os.Exit(2)
	}

	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Error("http listen", "addr", *httpAddr, "err", err)
			os.Exit(1)
		}
		logger.Info("http endpoints up",
			"metrics", "http://"+hl.Addr().String()+"/metrics",
			"traces", "http://"+hl.Addr().String()+"/debug/traces")
		go func() {
			h := metrics.Handler(rt.Metrics().Exposition(), metrics.WithHandler("/debug/traces", col.Handler(rt.FetchChild)))
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
	logger.Info("routing",
		"addr", l.Addr().String(),
		"backends", strings.Join(labels, ","),
		"conns", *conns,
		"pinned", strings.Join(pins, ","),
		"health_interval", healthInterval.String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		s := <-sig
		logger.Info("shutting down", "signal", s.String())
		if err := rt.Close(); err != nil {
			logger.Error("close", "err", err)
		}
	}()

	if err := rt.Serve(l); !errors.Is(err, cluster.ErrRouterClosed) {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	// Serve unblocks as soon as the listener drops; Close is still
	// draining the bursts already read and forwarded.
	<-closeDone
	logger.Info("bye")
}
