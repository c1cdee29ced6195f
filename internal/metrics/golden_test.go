package metrics_test

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caram/internal/metrics"
	"caram/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the golden scrapes in testdata")

// serverFixture is a deterministic registry that reaches every branch of
// the server exposition: engines of all four types, one without a gauge
// sampler, zero-count ops, latency histograms with leading and trailing
// empty buckets and one observation past the last edge, integer gauges
// and counters too large for %g to print whole, and an unknown count.
func serverFixture() *metrics.Registry {
	r := metrics.NewRegistry([]string{"db"})
	db := r.Engine("db")
	ip := r.Register("ip", "lpm")
	acl := r.Register("acl", "pktclass")
	tri := r.Register("tri", "trigram") // no gauge sampler: headers, no samples

	db.Observe(metrics.OpSearch, 300*time.Nanosecond, nil)
	db.Observe(metrics.OpSearch, 1500*time.Nanosecond, nil)
	db.Observe(metrics.OpSearch, 1500*time.Nanosecond, errors.New("miss"))
	db.Observe(metrics.OpInsert, 2*time.Microsecond, nil)
	db.Observe(metrics.OpInsert, 10*time.Second, nil) // past the last edge
	db.ObserveBatch(metrics.OpMSearch, 64*time.Microsecond, 64, 2)
	ip.Observe(metrics.OpInsert, 700*time.Nanosecond, nil)
	ip.Observe(metrics.OpSearch, 40*time.Millisecond, nil)
	acl.Observe(metrics.OpDelete, time.Microsecond, errors.New("not found"))
	tri.Observe(metrics.OpSearch, 900*time.Nanosecond, nil)

	db.SetGaugeFunc(func() metrics.Gauges {
		return metrics.Gauges{
			Records: 12345678, LoadFactor: 0.875, AMAL: 1.0625,
			Lookups: 123456789012, RowsAccessed: 131172839506, Hits: 123456789000, Misses: 12, Spilled: 4,
			Health: 1, Quarantined: 2, EccCorrected: 5, EccUncorrectable: 1, EccReadErrors: 7, ScrubRepairedBits: 8,
			ReadRetries: 9, LockFallbacks: 10,
		}
	})
	ip.SetGaugeFunc(func() metrics.Gauges {
		return metrics.Gauges{Records: 65, LoadFactor: 1.0 / 3, AMAL: 1, Lookups: 1, RowsAccessed: 1, Hits: 1}
	})
	acl.SetGaugeFunc(func() metrics.Gauges { return metrics.Gauges{} })
	r.AddUnknown(3)
	return r
}

// serverScrape renders the fixture with a write-ahead log attached whose
// last fsync never happened, so its age reads -1, whose two latency
// histograms hold a few fsyncs and the two snapshots' captures, and
// whose commit batches include one past the last bound.
func serverScrape(t *testing.T) string {
	t.Helper()
	var fsync, capture metrics.Histogram
	for _, d := range []time.Duration{40 * time.Microsecond, 900 * time.Microsecond, 900 * time.Microsecond, 12 * time.Millisecond} {
		fsync.Observe(int64(d))
	}
	capture.Observe(int64(100 * time.Microsecond))
	capture.Observe(int64(150 * time.Microsecond))
	var batch metrics.SizeHistogram
	for _, n := range []int{1, 1, 40, 700, 100000} {
		batch.Observe(n)
	}
	stats := func() wal.Stats {
		return wal.Stats{
			LSN: 42, Durable: 40, SnapshotLSN: 17, Pending: 2, Segments: 3,
			Fsyncs: 12345678, FsyncNanos: 1500000, LastFsync: 0,
			Snapshots: 2, SnapshotNanos: 3000000000, SnapshotCaptureNanos: 250000, SnapshotBytes: 123456789,
			FsyncLatency: fsync.Snapshot(), CaptureLatency: capture.Snapshot(), CommitBatch: batch.Snapshot(),
		}
	}
	return scrape(t, serverFixture().Exposition(metrics.Bind(stats, wal.StatsFamilies...)))
}

func scrape(t *testing.T, x metrics.Exposition) string {
	t.Helper()
	var sb strings.Builder
	if _, err := x.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// routerScrape renders two backends, one with an open breaker that has
// tripped twice and a burst histogram with a burst past the last edge.
func routerScrape(t *testing.T) string {
	t.Helper()
	rm := metrics.NewRouterMetrics([]string{"10.0.0.1:7071", "10.0.0.2:7071"})
	b := rm.Backend(0)
	b.AddOps(12345678)
	b.AddErrs(3)
	b.IncRetries()
	b.SetBreaker(true)
	b.SetBreaker(false)
	b.SetBreaker(true)
	b.DepthAdd(5)
	for _, n := range []int{1, 3, 3, 17, 200, 5000} {
		b.ObserveBurst(n)
	}
	rm.Backend(1).AddOps(64)
	return scrape(t, rm.Exposition())
}

// TestGoldenScrape holds both tiers' expositions byte for byte to
// testdata: names, help strings, label order, number formatting and
// family order. Only what differs per process is masked — the uptime
// value and the build-identity labels. Regenerate with `go test
// ./internal/metrics -run GoldenScrape -update` after a deliberate change
// to the exposition, and review the diff.
func TestGoldenScrape(t *testing.T) {
	for _, tc := range []struct {
		file   string
		scrape func(*testing.T) string
	}{{"server.prom", serverScrape}, {"router.prom", routerScrape}} {
		t.Run(tc.file, func(t *testing.T) {
			got := maskProcess(tc.scrape(t))
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if got == string(want) {
				return
			}
			g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(g) || i < len(w); i++ {
				gl, wl := "<missing>", "<missing>"
				if i < len(g) {
					gl = g[i]
				}
				if i < len(w) {
					wl = w[i]
				}
				if gl != wl {
					t.Fatalf("%s line %d:\n  got  %s\n  want %s", tc.file, i+1, gl, wl)
				}
			}
		})
	}
}

// maskProcess blanks what differs per process: the caram_uptime_seconds
// value and the caram_build_info labels.
func maskProcess(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "caram_uptime_seconds "):
			lines[i] = "caram_uptime_seconds <uptime>"
		case strings.HasPrefix(l, "caram_build_info{"):
			_, v, _ := strings.Cut(l, "} ")
			lines[i] = "caram_build_info{<build>} " + v
		}
	}
	return strings.Join(lines, "\n")
}
