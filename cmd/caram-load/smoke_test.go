package main

import (
	"net"
	"testing"
	"time"

	"caram/internal/caram"
	"caram/internal/cluster"
	"caram/internal/server"
	"caram/internal/subsystem"
)

// testScale shrinks every table and stream so the package tests in a
// few seconds; the shapes (load factor near a half, typed tables well
// under capacity, a window smaller than a connection's key range) are
// the full scale's.
var testScale = scale{
	keys:          4000,
	indexBits:     10,
	slots:         8,
	cycleBursts:   64,
	window:        256,
	prefixes:      400,
	rules:         40,
	trigrams:      800,
	typedBits:     8,
	ladderBatches: 2,
}

// TestStreamDeterminism: -seed is the only source of randomness. The
// same seed renders byte-identical request and reply streams; another
// seed renders different ones.
func TestStreamDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 11, testScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 11, testScale)
		c, _ := newWorkload(name, 12, testScale)
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 11 hashed %s then %s", name, a.hash(), b.hash())
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 11 and 12 both hashed %s", name, a.hash())
		}
	}
	// The routed stream is the direct one, byte for byte.
	d, _ := newWorkload("search-direct", 11, testScale)
	r, _ := newWorkload("search-routed", 11, testScale)
	if d.hash() != r.hash() {
		t.Errorf("search-routed hashed %s, search-direct %s", r.hash(), d.hash())
	}
}

// inProcServer serves an empty engine db of the scale's geometry on a
// loopback port, inside the test process.
func inProcServer(t *testing.T, sc scale) string {
	t.Helper()
	sub := subsystem.New(0)
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: caram.MustNew(dbConfig(sc))}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sub)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at cleanup
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestSmokeInProcess runs every workload for one 0.3 s repetition
// against server.New + Serve (and cluster.NewRouter for the routed
// one): load over the wire, verify the load, drive, verify every reply.
// mixed-wal runs without a WAL here — this checks the liveness model —
// and is audited key by key at the burst it stopped on.
func TestSmokeInProcess(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 5, testScale)
			if err != nil {
				t.Fatal(err)
			}
			backends := []string{inProcServer(t, testScale)}
			front := backends[0]
			if w.routed {
				backends = append(backends, inProcServer(t, testScale))
				var bks []cluster.Backend
				for _, b := range backends {
					bks = append(bks, cluster.Backend{Label: b, Addr: b})
				}
				rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: bks})
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go rt.Serve(ln) //nolint:errcheck // ends with ErrRouterClosed at cleanup
				t.Cleanup(func() { rt.Close() })
				front = ln.Addr().String()
			}
			if err := w.load(backends); err != nil {
				t.Fatal(err)
			}
			if err := w.verifyLoad(front); err != nil {
				t.Fatal(err)
			}
			clients, err := connect(front, w, true)
			if err != nil {
				t.Fatal(err)
			}
			defer closeClients(clients)
			r := runRep(clients, 300*time.Millisecond, true, name, pidSet{})
			if r.Lines == 0 || r.Failed != 0 {
				t.Fatalf("%d lines, %d failed", r.Lines, r.Failed)
			}
			for _, c := range clients {
				if c.dead != nil {
					t.Fatal(c.dead)
				}
				if len(c.spans) == 0 || len(c.spans)%5 != 0 {
					t.Errorf("conn %d recorded %d spans, want a positive multiple of 5", c.id, len(c.spans))
				}
			}
			if _, err := depth1RTT(front, w.streams[0], 50); err != nil {
				t.Fatal(err)
			}
			if name == "mixed-wal" {
				done := make([]int, len(clients))
				for i, c := range clients {
					done[i] = c.next
				}
				lines, bad, err := driveOnce(front, w.auditStreams(done))
				if err != nil || bad != 0 || lines*msearchKeys < w.sc.keys {
					t.Fatalf("audit: %d lines, %d bad, %v", lines, bad, err)
				}
			}
		})
	}
}

// TestSmokeCatchesWrongReplies: the verifier must fail a stream whose
// predictions do not match the server, or failed_share means nothing.
func TestSmokeCatchesWrongReplies(t *testing.T) {
	w, err := newWorkload("search-direct", 5, testScale)
	if err != nil {
		t.Fatal(err)
	}
	addr := inProcServer(t, testScale) // nothing loaded: every predicted HIT is a MISS
	clients, err := connect(addr, w, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeClients(clients)
	r := runRep(clients, 50*time.Millisecond, false, w.name, pidSet{})
	if r.Failed == 0 || r.Failed >= r.Lines {
		t.Fatalf("%d of %d lines failed; want most (the predicted hits) but not all (the predicted misses)", r.Failed, r.Lines)
	}
}

// TestLadder climbs every rung at test scale, twice: the rungs are
// exactly the catalogue's, each batch left a span, and the row count —
// an exact count — repeats.
func TestLadder(t *testing.T) {
	tr := newTracer()
	a, err := runLadder(3, testScale, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runLadder(3, testScale, nil)
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for name := range a {
		if !known[name] {
			t.Errorf("ladder produced %q, which the catalogue does not list", name)
		}
	}
	for _, name := range []string{
		"hash.index_ns", "match.binary_row_ns", "match.ternary_row_ns",
		"caram.lookup_ns", "caram.lookup_best_ns", "caram.insert_ns", "caram.delete_ns",
		"caram.rows_per_lookup", "caram.expected_rows_per_lookup",
		"subsystem.search_ns", "subsystem.insert_ns", "subsystem.delete_ns",
		"subsystem.msearch64_ns_per_key", "subsystem.msearch64_allocs",
		"server.exec_search_ns", "server.exec_search_bare_ns", "server.exec_insert_ns",
		"server.exec_msearch64_ns_per_key", "server.exec_lpm_ns", "server.exec_pktclass_ns",
		"server.exec_tsearch_ns", "server.exec_search_allocs", "server.handle_depth16_ns_per_op",
		"metrics.search_premium_ns", "trace.sampled_search_premium_ns",
		"wal.append_commit_ns", "wal.insert_premium_ns", "wal.snapshot_s", "wal.snapshot_mb",
		"wal.recover_s", "wal.recover_us_per_record",
		"cluster.ring_owner_ns", "cluster.pool_rtt_us",
	} {
		if _, ok := a[name]; !ok {
			t.Errorf("ladder did not produce %s", name)
		}
	}
	if a["caram.rows_per_lookup"] != b["caram.rows_per_lookup"] || a["caram.rows_per_lookup"] < 1 {
		t.Errorf("caram.rows_per_lookup = %v then %v; an exact count must repeat", a["caram.rows_per_lookup"], b["caram.rows_per_lookup"])
	}
	if len(tr.spans) < 20*testScale.ladderBatches {
		t.Errorf("%d ladder spans for %d batches per rung", len(tr.spans), testScale.ladderBatches)
	}
}
