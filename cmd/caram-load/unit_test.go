package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		q, want float64
	}{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5}} {
		if got := quantile(xs, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := quantileNs([]int64{1000, 3000, 2000}, 0.5); !near(got, 2000) {
		t.Errorf("quantileNs = %v, want 2000", got)
	}
}

func TestPickQuiet(t *testing.T) {
	// Three repetitions over the 2 % line, five under it: the five are
	// kept, in run order, and all of them are quiet.
	steal := []float64{0.01, 0.30, 0.00, 0.02, 0.25, 0.005, 0.13, 0.015}
	kept, quiet, noisy := pickQuiet(steal, keepReps)
	if want := []int{0, 2, 3, 5, 7}; !reflect.DeepEqual(kept, want) {
		t.Errorf("kept %v, want %v", kept, want)
	}
	if quiet != 5 || noisy {
		t.Errorf("quiet=%d noisy=%v, want 5 false", quiet, noisy)
	}
	// Mostly stolen: the five quietest are still kept, but only two of
	// them meet the rule, so the workload is unresolved.
	steal = []float64{0.10, 0.01, 0.20, 0.30, 0.02, 0.15, 0.40, 0.12}
	kept, quiet, noisy = pickQuiet(steal, keepReps)
	if want := []int{0, 1, 4, 5, 7}; !reflect.DeepEqual(kept, want) {
		t.Errorf("kept %v, want %v", kept, want)
	}
	if quiet != 2 || !noisy {
		t.Errorf("quiet=%d noisy=%v, want 2 true", quiet, noisy)
	}
	// Ties go to the earlier repetition: selection never looks at the
	// outcome, only at steal and position.
	kept, _, _ = pickQuiet([]float64{0, 0, 0, 0}, 2)
	if want := []int{0, 1}; !reflect.DeepEqual(kept, want) {
		t.Errorf("tie-break kept %v, want %v", kept, want)
	}
}

func TestParseHostCPU(t *testing.T) {
	text := "cpu  1739507 0 358592 1026973 9047 0 120928 35174 0 0\ncpu0 858862 0 216448 508263 4313 0 37897 17976 0 0\n"
	h, err := parseHostCPU(text)
	if err != nil {
		t.Fatal(err)
	}
	if h.steal != 35174 || h.total != 1739507+358592+1026973+9047+120928+35174 {
		t.Errorf("parsed %+v", h)
	}
	later := hostCPU{total: h.total + 500, steal: h.steal + 10}
	if got := later.stealShareSince(h); !near(got, 0.02) {
		t.Errorf("steal share %v, want 0.02", got)
	}
	if got := h.stealShareSince(h); got != 0 {
		t.Errorf("steal share over an empty interval = %v", got)
	}
	for _, bad := range []string{"", "intr 1 2 3", "cpu 1 2 3", "cpu a b c d e f g h"} {
		if _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q) accepted", bad)
		}
	}
}

func TestParsePidStat(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	text := "4242 (caram) serv er) S 1 4242 4242 0 -1 4194560 1500 0 0 0 321 123 0 0 20 0 9 0 100 200 300"
	got, err := parsePidStat(text)
	if err != nil {
		t.Fatal(err)
	}
	if got != 321+123 {
		t.Errorf("ticks = %d, want 444", got)
	}
	if _, err := parsePidStat("4242 caram S 1"); err == nil {
		t.Error("accepted a line without a command field")
	}
	if _, err := parsePidStat("1 (x) S 1 2 3"); err == nil {
		t.Error("accepted a short line")
	}
}

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM("Name:\tcaram-server\nVmPeak:\t  900000 kB\nVmHWM:\t   39740 kB\nVmRSS:\t   30000 kB\n")
	if err != nil || got != 39740 {
		t.Errorf("VmHWM = %d, %v", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("accepted a status without VmHWM")
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP caram_ops_total ops
# TYPE caram_ops_total counter
caram_ops_total{engine="db",engine_type="exact",op="search"} 10
caram_ops_total{engine="ip",engine_type="lpm",op="search"} 5
caram_router_burst_size_bucket{backend="127.0.0.1:1",le="+Inf"} 4
caram_router_burst_size_sum{backend="127.0.0.1:1"} 31
caram_router_burst_size_count{backend="127.0.0.1:1"} 4
caram_wal_fsync_seconds_total 1.5e-3
caram_engine_label{note="a b } c"} 2
`
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"caram_ops_total":               15,
		"caram_router_burst_size_sum":   31,
		"caram_router_burst_size_count": 4,
		"caram_wal_fsync_seconds_total": 0.0015,
		"caram_engine_label":            2,
	} {
		if !near(s[name], want) {
			t.Errorf("%s = %v, want %v", name, s[name], want)
		}
	}
	for _, bad := range []string{"caram_ops_total", "caram_ops_total{x=\"y\" 3", "caram_ops_total three"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

func TestParseKV(t *testing.T) {
	kv := parseKV("WAL lsn=29 durable=28 segments=1 snapshot_lsn=0 sync=interval=5ms")
	if kv["lsn"] != 29 || kv["durable"] != 28 || kv["segments"] != 1 {
		t.Errorf("parsed %v", kv)
	}
	if _, ok := kv["sync"]; ok {
		t.Errorf("non-numeric value kept: %v", kv)
	}
	if got := parseKV("STATS n=600000 alpha=0.572 amal=1.020 hits=1 misses=0")["n"]; got != 600000 {
		t.Errorf("n = %v", got)
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(ops, cpu, rss, setup, noisy, failed float64) *workloadResult {
		return &workloadResult{Metrics: metricSet{
			"throughput_ops_s": ops, "cpu_us_per_op": cpu,
			"rss_mb": rss, "setup_s": setup, "host.noisy": noisy, "client.failed_share": failed,
		}}
	}
	a := &result{Workloads: map[string]*workloadResult{
		"search-direct": mk(200_000, 4, 40, 1.5, 0, 0),
		"mixed-wal":     mk(100_000, 5, 120, 3, 0, 0),
		"typed-search":  mk(150_000, 5, 47, 0.4, 0, 0),
	}}
	b := &result{Workloads: map[string]*workloadResult{
		// 30 % slower and 20 % more setup: throughput regresses, setup
		// does not (both bounds are 25 %); CPU per op is per-layer and
		// gets no row.
		"search-direct": mk(140_000, 3.5, 40, 1.8, 0, 0),
		// Much slower, but the host was noisy: unresolved, not regressed.
		"mixed-wal": mk(50_000, 9, 120, 3, 1, 0),
		// Identical numbers, one wrong reply: failed_share is absolute.
		"typed-search": mk(150_000, 5, 47, 0.4, 0, 1e-6),
	}}
	got := make(map[string]string)
	for _, c := range compareResults(a, b) {
		got[c.Workload+"/"+c.Metric] = c.Verdict
	}
	want := map[string]string{
		"search-direct/throughput_ops_s": "REGRESSED",
		"search-direct/rss_mb":           "ok",
		"search-direct/setup_s":          "ok",
		"search-direct/failed_share":     "ok",
		"mixed-wal/throughput_ops_s":     "unresolved",
		"mixed-wal/rss_mb":               "unresolved",
		"mixed-wal/setup_s":              "unresolved",
		"mixed-wal/failed_share":         "ok",
		"typed-search/throughput_ops_s":  "ok",
		"typed-search/rss_mb":            "ok",
		"typed-search/setup_s":           "ok",
		"typed-search/failed_share":      "REGRESSED",
	}
	if !reflect.DeepEqual(got, want) {
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s: %q, want %q", k, got[k], v)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d rows, want %d", len(got), len(want))
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the catalogue it is
// generated from, and the catalogue to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := printBenchmarkJSON(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(onDisk), bytes.TrimSpace(buf.Bytes())) {
		t.Error("BENCHMARK.json differs from `caram-load -describe`; regenerate it")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if len(n) == 0 || len(n) > 64 || seen[n] {
			t.Errorf("name %q is empty, long or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range doc.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, d := range append(doc.EndToEnd, doc.PerLayer...) {
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	for _, d := range doc.PerLayer {
		name(d.Name)
	}
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("%s: the catalogue does not say which end-to-end metric it should move", d.Name)
		}
	}
}
