package server

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/match"
	"caram/internal/subsystem"
)

// metricsFields parses one single-line METRICS response into its
// key=value fields ("METRICS engine=e0 insert=3 ..." -> {"engine":"e0",
// "insert":"3", ...}).
func metricsFields(t *testing.T, resp string) map[string]string {
	t.Helper()
	fields := strings.Fields(resp)
	if len(fields) == 0 || fields[0] != "METRICS" {
		t.Fatalf("not a METRICS response: %q", resp)
	}
	m := make(map[string]string, len(fields)-1)
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("malformed METRICS field %q in %q", f, resp)
		}
		m[k] = v
	}
	return m
}

// TestStressMetricsCountersExact replays the mixed stress workload —
// 32 goroutines over 4 engines, ~46k instrumented ops — and then
// checks that the per-engine METRICS counters match the op counts the
// workers actually issued, exactly. Workers own disjoint key ranges so
// every response (and therefore every expected error) is predictable.
// Under -race this is the end-to-end safety check for the metrics
// path: atomics only, no torn counts, no lost increments.
func TestStressMetricsCountersExact(t *testing.T) {
	const (
		workers = 32
		iters   = 160
		engines = 4
	)
	s, names := stressServer(t, engines)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := names[g%engines]
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("%x", uint64(g)<<32|uint64(i))
				if resp := s.Exec(fmt.Sprintf("INSERT %s %s %x", eng, key, i)); resp != "OK" { // the payload fits 32 bits
					t.Errorf("worker %d INSERT: %q", g, resp)
					return
				}
				if resp := s.Exec("SEARCH " + eng + " " + key); !strings.HasPrefix(resp, "HIT ") {
					t.Errorf("worker %d SEARCH: %q", g, resp)
					return
				}
				var req strings.Builder
				req.WriteString("MSEARCH")
				for _, n := range names {
					req.WriteString(" " + n + " " + key)
				}
				if resp := s.Exec(req.String()); !strings.HasPrefix(resp, "MRESULTS ") {
					t.Errorf("worker %d MSEARCH: %q", g, resp)
					return
				}
				if resp := s.Exec("DELETE " + eng + " " + key); resp != "OK" {
					t.Errorf("worker %d DELETE: %q", g, resp)
					return
				}
				if resp := s.Exec("SEARCH " + eng + " " + key); resp != "MISS" {
					t.Errorf("worker %d post-delete SEARCH: %q", g, resp)
					return
				}
				// Double delete: a predictable per-engine error.
				if resp := s.Exec("DELETE " + eng + " " + key); !strings.HasPrefix(resp, "ERR ") {
					t.Errorf("worker %d double DELETE: %q", g, resp)
					return
				}
				// Periodic unknown-engine traffic.
				if i%10 == 0 {
					if resp := s.Exec("SEARCH ghost " + key); !strings.HasPrefix(resp, "ERR ") {
						t.Errorf("worker %d ghost SEARCH: %q", g, resp)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	perEngineWorkers := workers / engines
	want := map[string]int{
		"insert":      perEngineWorkers * iters,
		"insert_err":  0,
		"search":      2 * perEngineWorkers * iters,
		"search_err":  0,
		"delete":      2 * perEngineWorkers * iters,
		"delete_err":  perEngineWorkers * iters,
		"msearch":     workers * iters, // every worker fans to every engine
		"msearch_err": 0,
	}
	for _, n := range names {
		m := metricsFields(t, s.Exec("METRICS "+n))
		for k, v := range want {
			if m[k] != fmt.Sprint(v) {
				t.Errorf("engine %s: %s = %s, want %d", n, k, m[k], v)
			}
		}
		if m["n"] != "0" {
			t.Errorf("engine %s not empty after stress: n=%s", n, m["n"])
		}
	}
	sum := metricsFields(t, s.Exec("METRICS"))
	wantOps := engines * (want["insert"] + want["search"] + want["delete"] + want["msearch"])
	wantErrs := engines * want["delete_err"]
	wantUnknown := workers * ((iters + 9) / 10)
	if m, w := sum["ops"], fmt.Sprint(wantOps); m != w {
		t.Errorf("summary ops = %s, want %s", m, w)
	}
	if m, w := sum["errors"], fmt.Sprint(wantErrs); m != w {
		t.Errorf("summary errors = %s, want %s", m, w)
	}
	if m, w := sum["unknown"], fmt.Sprint(wantUnknown); m != w {
		t.Errorf("summary unknown = %s, want %s", m, w)
	}
}

// TestMetricsAMALAgreesWithAnalytic validates the live AMAL gauge
// against the paper's §3.4 placement model. An exact-match Lookup
// early-exits at the target, so a search for a stored key reads
// exactly 1+displacement rows; searching every stored key once makes
// the on-the-wire gauge (RowsAccessed/Lookups) equal the analytic
// mean over stored records of 1+displacement, up to the 0.01 absolute
// tolerance the repo's design experiments use.
func TestMetricsAMALAgreesWithAnalytic(t *testing.T) {
	const records = 1800 // 256 buckets x 8 slots: alpha ~0.88, real spill pressure
	sl := caram.MustNew(caram.Config{
		IndexBits: 8,
		RowBits:   8*(1+64+32) + 8,
		KeyBits:   64,
		DataBits:  32,
		Index:     hash.NewMultShift(8),
	})
	sub := subsystem.New(0)
	if err := sub.AddEngine(&subsystem.Engine{Name: "db", Main: sl}); err != nil {
		t.Fatal(err)
	}
	s := New(sub)

	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("%x", uint64(i)*0x9e3779b97f4a7c15) // spread the key space
		if resp := s.Exec("INSERT db " + keys[i] + " 1"); resp != "OK" {
			t.Fatalf("INSERT %d: %q", i, resp)
		}
	}
	for _, k := range keys {
		if resp := s.Exec("SEARCH db " + k); !strings.HasPrefix(resp, "HIT ") {
			t.Fatalf("SEARCH %s: %q", k, resp)
		}
	}

	// Analytic AMAL: mean of 1+displacement over the actual placement.
	rows := sl.Config().Rows()
	var totalRows, n int
	sl.Records(func(bucket uint32, slot int, rec match.Record) bool {
		home := sl.Index(rec.Key.Value)
		totalRows += 1 + (int(bucket)-int(home)+rows)%rows
		n++
		return true
	})
	if n != records {
		t.Fatalf("Records walk saw %d records, want %d", n, records)
	}
	analytic := float64(totalRows) / float64(n)

	g, ok := s.met.Engine("db").SampleGauges()
	if !ok {
		t.Fatal("no gauges wired")
	}
	if g.Lookups != uint64(records) {
		t.Fatalf("gauge lookups = %d, want %d", g.Lookups, records)
	}
	if diff := math.Abs(g.AMAL - analytic); diff > 0.01 {
		t.Errorf("live AMAL %.4f vs analytic %.4f: |diff| %.4f > 0.01", g.AMAL, analytic, diff)
	}
	if analytic <= 1 {
		t.Errorf("analytic AMAL %.4f: expected spill pressure at alpha %.2f", analytic, sl.LoadFactor())
	}
	// The wire form reports the same gauge (rounded to 3 decimals).
	m := metricsFields(t, s.Exec("METRICS db"))
	if m["amal"] != fmt.Sprintf("%.3f", g.AMAL) {
		t.Errorf("wire amal = %s, gauge %.3f", m["amal"], g.AMAL)
	}
}
