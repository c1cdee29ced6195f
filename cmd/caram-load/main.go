// Command caram-load is the repository's benchmark: it builds
// caram-server and caram-router, starts them as real processes on
// loopback ports it discovered, drives five pre-rendered workloads at
// them in a closed loop, verifies every reply against a model, and
// prints every metric by name with its unit. Per-layer numbers are
// taken from outside the programs: by timing calls into each layer's
// public functions in-process (the ladder), by scraping /metrics, STATS
// and WAL STATUS, and from /proc/<pid>. bench/README.md documents the
// metrics, the workloads and the quiet-repetition rule.
//
//	go run ./cmd/caram-load -seed 1 -out result.json    # everything
//	go run ./cmd/caram-load -ladder                     # the in-process ladder only
//	go run ./cmd/caram-load -compare a.json b.json      # deltas against the bounds
//	go run ./cmd/caram-load -describe                   # BENCHMARK.json from the catalogue
//
// The benchmark driver runs one workload per invocation:
//
//	go run ./cmd/caram-load --workload search-direct --seed 7 --seconds 10 --trace 0
//
// and reads the last line of standard output, a JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// runTimeout is the watchdog of a single-workload run: the driver
// allows 180 s, so the harness gives up, cleans up and exits non-zero
// before that. A full -out run covers ten such runs and the ladder.
const runTimeout = 170 * time.Second

func main() {
	err := run()
	cleanup()
	if err != nil {
		fmt.Fprintf(os.Stderr, "caram-load: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's result line (one of "+fmt.Sprint(workloadNames)+")")
		seed         = flag.Int64("seed", 1, "the only source of randomness: key sets, typed tables and request streams")
		seconds      = flag.Float64("seconds", 10, "timed window per run, split into 8 repetitions")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (ladder, spans, scraped counters)")
		spansPath    = flag.String("spans", "", "where a traced run writes its spans (default "+buildDir+"/spans-<workload>.json)")
		out          = flag.String("out", "", "run all five workloads, untraced then traced, and write the full result here")
		ladderOnly   = flag.Bool("ladder", false, "run only the in-process ladder and print its rungs")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments against the bounds")
		describe     = flag.Bool("describe", false, "print BENCHMARK.json as generated from the metric catalogue")
	)
	flag.Parse()
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}

	switch {
	case *describe:
		return printBenchmarkJSON(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *ladderOnly:
		m, err := runLadder(*seed, fullScale, nil)
		if err != nil {
			return err
		}
		printMetrics(os.Stdout, "ladder", m, perLayer, true)
		return nil
	case *workloadName != "":
		guard(runTimeout)
		return runOne(*workloadName, *seed, *seconds, *trace == 1, *spansPath)
	case *out != "":
		guard(20 * runTimeout)
		return runAll(*out, *seed, *seconds, *spansPath)
	}
	flag.Usage()
	return fmt.Errorf("nothing to do: give -workload, -out, -ladder, -compare or -describe")
}

// live is every fleet currently holding processes or directories, so a
// signal or the watchdog can release them from outside the run.
var live struct {
	mu     sync.Mutex
	fleets map[*fleet]struct{}
}

func track(f *fleet) {
	live.mu.Lock()
	if live.fleets == nil {
		live.fleets = make(map[*fleet]struct{})
	}
	live.fleets[f] = struct{}{}
	live.mu.Unlock()
}

func cleanup() {
	live.mu.Lock()
	fleets := live.fleets
	live.fleets = nil
	live.mu.Unlock()
	for f := range fleets {
		f.close()
	}
}

// guard arms the ways a run can end other than by returning: SIGINT or
// SIGTERM, and the watchdog. Both kill every child's process group and
// remove the data directories before exiting non-zero. (A SIGKILL of
// the harness itself is covered by Pdeathsig on the children.)
func guard(limit time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "caram-load: %v: stopping children\n", s)
		case <-time.After(limit):
			fmt.Fprintf(os.Stderr, "caram-load: no result after %v: stopping children\n", limit)
		}
		cleanup()
		os.Exit(1)
	}()
}

// runOne is the driver's contract: one workload, one kind of run, one
// JSON line last on standard output.
func runOne(name string, seed int64, seconds float64, traced bool, spansPath string) error {
	bins, err := buildBinaries()
	if err != nil {
		return err
	}
	w, err := newWorkload(name, seed, fullScale)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := measure(w, bins, seconds, tr)
	if err != nil {
		return err
	}
	res.printReps(os.Stderr)
	defs := endToEnd
	if traced {
		ladder, err := runLadder(seed, fullScale, tr)
		if err != nil {
			return err
		}
		mergeLadder(name, res.Metrics, ladder)
		if spansPath == "" {
			spansPath = filepath.Join(buildDir, "spans-"+name+".json")
		}
		if err := tr.write(spansPath); err != nil {
			return err
		}
		defs = perLayer
	}
	printMetrics(os.Stdout, name, res.Metrics, defs, false)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics.fill(defs)}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Printf("%s\n", data)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d replies failed verification", name, res.Failed, res.Attempted)
	}
	return nil
}
