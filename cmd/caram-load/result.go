package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// result is the file -out writes and -compare reads: one untraced and
// one traced run of every workload, the ladder, and the host they ran
// on. bench/history keeps one per commit, append-only.
type result struct {
	Schema    int                        `json:"schema"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	StartedAt string                     `json:"started_at"`
	Host      hostFacts                  `json:"host"`
	Load      string                     `json:"load"`
	EndToEnd  []metricDef                `json:"end_to_end"`
	Workloads map[string]*workloadResult `json:"workloads"` // untraced runs
	Traced    map[string]*workloadResult `json:"traced"`    // traced runs
	Ladder    metricSet                  `json:"ladder"`
}

const loadShape = "closed loop, 1 generator process, 2 connections, 16-line bursts (MSEARCH: 4 lines of 64 keys): write burst, one flush, read and verify every reply"

// printMetrics lists every metric of defs by name with its unit. With
// onlySet, names the run did not produce are left out (the ladder
// alone fills only its own rungs).
func printMetrics(w io.Writer, scope string, m metricSet, defs []metricDef, onlySet bool) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if onlySet && !ok {
			continue
		}
		fmt.Fprintf(w, "%-16s %-36s %16.4f %s\n", scope, d.Name, v, d.Unit)
	}
}

// printReps lists the repetitions behind a result: what each measured,
// what the host did to it, and whether the quiet rule kept it.
func (r *workloadResult) printReps(w io.Writer) {
	kept := make(map[int]bool, len(r.Kept))
	for _, i := range r.Kept {
		kept[i] = true
	}
	if r.DataDir != "" {
		fmt.Fprintf(w, "%-16s data dir %s (%s)\n", r.Name, r.DataDir, r.DataDirFS)
	}
	for i, rp := range r.Reps {
		mark := "dropped"
		if kept[i] {
			mark = "kept"
		}
		fmt.Fprintf(w, "%-16s rep %d  %10.0f ops/s  p50 %8.1f us  steal %5.2f%%  %s\n",
			r.Name, i, rp.OpsPerSec, rp.BurstP50Us, rp.StealShare*100, mark)
	}
}

// printBenchmarkJSON renders BENCHMARK.json from the catalogue.
func printBenchmarkJSON(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./cmd/caram-load"},
		Paths:      []string{"cmd/caram-load", "bench"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
	}
	for _, n := range workloadNames {
		doc.Workloads = append(doc.Workloads, named{n, workloadWhy[n]})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runAll is the one command: every workload untraced (end-to-end
// numbers, tracing off) and then traced (per-layer numbers), the ladder
// once, one result file.
func runAll(out string, seed int64, seconds float64, spansPath string) error {
	bins, err := buildBinaries()
	if err != nil {
		return err
	}
	res := &result{
		Schema: 1, Seed: seed, Seconds: seconds,
		StartedAt: time.Now().UTC().Format(time.RFC3339),
		Host:      readHostFacts(), Load: loadShape, EndToEnd: endToEnd,
		Workloads: make(map[string]*workloadResult),
		Traced:    make(map[string]*workloadResult),
	}
	tr := newTracer()
	failed := 0
	for _, name := range workloadNames {
		w, err := newWorkload(name, seed, fullScale)
		if err != nil {
			return err
		}
		plain, err := measure(w, bins, seconds, nil)
		if err != nil {
			return err
		}
		res.Workloads[name] = plain
		printMetrics(os.Stdout, name, plain.Metrics, endToEnd, false)
		traced, err := measure(w, bins, seconds, tr)
		if err != nil {
			return err
		}
		if res.Ladder == nil {
			if res.Ladder, err = runLadder(seed, fullScale, tr); err != nil {
				return err
			}
		}
		mergeLadder(name, traced.Metrics, res.Ladder)
		res.Traced[name] = traced
		printMetrics(os.Stdout, name, traced.Metrics, perLayer, false)
		failed += plain.Failed + traced.Failed
	}
	if spansPath == "" {
		spansPath = filepath.Join(buildDir, "spans.json")
	}
	if err := tr.write(spansPath); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	fmt.Printf("result: %s  spans: %s\n", out, spansPath)
	if failed > 0 {
		return fmt.Errorf("%d replies failed verification", failed)
	}
	return nil
}

// mergeLadder adds the ladder's rungs to a traced run's metrics, and
// the one derived rung that needs both: what the loopback socket costs
// per op on search-direct, as per-op wall time minus the in-memory
// Handle rung.
func mergeLadder(name string, m, ladder metricSet) {
	for k, v := range ladder {
		m[k] = v
	}
	if ops := m["throughput_ops_s"]; name == "search-direct" && ops > 0 {
		m["loopback.self_us_per_op"] = 1e6/ops - ladder["server.handle_depth16_ns_per_op"]/1e3
	}
}

// comparison is one (workload, end-to-end metric) row of -compare.
type comparison struct {
	Workload, Metric string
	A, B, Worse      float64 // Worse: B's change in the bad direction, as a share of A
	Bound            float64
	Verdict          string // "ok", "REGRESSED" or "unresolved"
}

// compareResults judges b against a on every (workload, end-to-end
// metric) pair: worse by more than the metric's bound is a regression;
// a pair where either side flagged host.noisy is unresolved, never
// "unchanged".
func compareResults(a, b *result) []comparison {
	var rows []comparison
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		if wb == nil {
			continue
		}
		noisy := wa.Metrics["host.noisy"] != 0 || wb.Metrics["host.noisy"] != 0
		for _, d := range endToEnd {
			va, vb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			c := comparison{Workload: n, Metric: d.Name, A: va, B: vb, Bound: d.Bound, Verdict: "ok"}
			if va != 0 {
				c.Worse = (vb - va) / va
				if d.Better == higher {
					c.Worse = -c.Worse
				}
			}
			switch {
			case noisy:
				c.Verdict = "unresolved"
			case c.Worse > d.Bound:
				c.Verdict = "REGRESSED"
			}
			rows = append(rows, c)
		}
		// failed_share has an absolute bound of 0.
		fa, fb := wa.Metrics["client.failed_share"], wb.Metrics["client.failed_share"]
		c := comparison{Workload: n, Metric: "failed_share", A: fa, B: fb, Verdict: "ok"}
		if fb > 0 {
			c.Verdict = "REGRESSED"
		}
		rows = append(rows, c)
	}
	return rows
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read result: %w", err)
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints the comparison and fails when any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NumCPU != b.Host.NumCPU {
		fmt.Fprintf(w, "warning: different hosts (%s x%d vs %s x%d): timings are not comparable\n",
			a.Host.CPUModel, a.Host.NumCPU, b.Host.CPUModel, b.Host.NumCPU)
	}
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", a.Host.GitCommit, b.Host.GitCommit, "worse", "bound", "verdict")
	regressed := 0
	for _, c := range compareResults(a, b) {
		fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
			c.Workload, c.Metric, c.A, c.B, c.Worse*100, c.Bound*100, c.Verdict)
		if c.Verdict == "REGRESSED" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed beyond their bound", regressed)
	}
	return nil
}
