package metrics

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestOpStringsAndParse(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
		upper, err := ParseOp(strings.ToUpper(op.String()))
		if err != nil || upper != op {
			t.Errorf("ParseOp upper %q failed: %v", op.String(), err)
		}
	}
	if _, err := ParseOp("STATS"); err == nil {
		t.Error("ParseOp accepted STATS")
	}
	if Op(99).String() != "unknown" {
		t.Error("out-of-range op string")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.AddUnknown(3)
	if r.Engine("db") != nil || r.Engines() != nil || r.Unknown() != 0 {
		t.Error("nil registry leaked state")
	}
	if ops, errs := r.Totals(); ops != 0 || errs != 0 {
		t.Error("nil registry totals non-zero")
	}
	if s := r.Snapshot(); len(s.Engines) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
}

func TestObserveCounts(t *testing.T) {
	r := NewRegistry([]string{"db", "aux"})
	em := r.Engine("db")
	em.Observe(OpInsert, time.Microsecond, nil)
	em.Observe(OpInsert, time.Microsecond, errors.New("full"))
	em.Observe(OpSearch, 500*time.Nanosecond, nil)
	if em.Count(OpInsert) != 2 || em.Errors(OpInsert) != 1 {
		t.Errorf("insert counters = %d/%d", em.Count(OpInsert), em.Errors(OpInsert))
	}
	if em.Count(OpSearch) != 1 || em.Errors(OpSearch) != 0 {
		t.Errorf("search counters = %d/%d", em.Count(OpSearch), em.Errors(OpSearch))
	}
	if n := em.Latency(OpInsert).N(); n != 2 {
		t.Errorf("insert latency N = %d", n)
	}
	ops, errs := r.Totals()
	if ops != 3 || errs != 1 {
		t.Errorf("totals = %d/%d", ops, errs)
	}
	r.AddUnknown(2)
	if r.Unknown() != 2 {
		t.Errorf("unknown = %d", r.Unknown())
	}
	if r.Engine("nope") != nil {
		t.Error("unknown engine resolved")
	}
}

// TestConcurrentIncrementsRace hammers one registry from 32 goroutines
// across engines and ops; the final counts must be exact. Run under
// -race (make race) this is the layer's core safety check.
func TestConcurrentIncrementsRace(t *testing.T) {
	const (
		workers = 32
		iters   = 500
	)
	names := []string{"e0", "e1", "e2", "e3"}
	r := NewRegistry(names)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			em := r.Engine(names[g%len(names)])
			for i := 0; i < iters; i++ {
				op := Op(i % int(NumOps))
				var err error
				if i%5 == 0 {
					err = errors.New("synthetic")
				}
				em.Observe(op, time.Duration(i)*time.Nanosecond, err)
				if i%7 == 0 {
					r.AddUnknown(1)
				}
				if i%50 == 0 {
					_ = r.Snapshot() // readers race the writers
				}
			}
		}()
	}
	wg.Wait()

	wantPerEngine := uint64(workers / len(names) * iters)
	var ops, errs uint64
	for _, n := range names {
		em := r.Engine(n)
		var engTotal uint64
		for op := Op(0); op < NumOps; op++ {
			engTotal += em.Count(op)
			ops += em.Count(op)
			errs += em.Errors(op)
			if em.Latency(op).N() != em.Count(op) {
				t.Errorf("%s/%s: latency N %d != count %d", n, op, em.Latency(op).N(), em.Count(op))
			}
		}
		if engTotal != wantPerEngine {
			t.Errorf("engine %s total = %d, want %d", n, engTotal, wantPerEngine)
		}
	}
	if want := uint64(workers * iters); ops != want {
		t.Errorf("total ops = %d, want %d", ops, want)
	}
	if want := uint64(workers * iters / 5); errs != want {
		t.Errorf("total errors = %d, want %d", errs, want)
	}
	if want := uint64(workers * ((iters + 6) / 7)); r.Unknown() != want {
		t.Errorf("unknown = %d, want %d", r.Unknown(), want)
	}
}

// TestSnapshotConsistencyMidStress takes snapshot pairs while writers
// are running: every counter in the earlier snapshot must be ≤ the same
// counter in the later one (monotone reads), and a final quiescent
// snapshot must equal the written totals.
func TestSnapshotConsistencyMidStress(t *testing.T) {
	const writers = 8
	r := NewRegistry([]string{"db"})
	em := r.Engine("db")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				em.Observe(Op(i%int(NumOps)), time.Duration(i%4096)*time.Nanosecond, nil)
			}
		}()
	}
	leq := func(a, b Snapshot) bool {
		if a.Unknown > b.Unknown {
			return false
		}
		for i := range a.Engines {
			for op := Op(0); op < NumOps; op++ {
				x, y := a.Engines[i].Ops[op], b.Engines[i].Ops[op]
				if x.Count > y.Count || x.Errors > y.Errors || x.Latency.N > y.Latency.N {
					return false
				}
				for j := range x.Latency.Counts {
					if x.Latency.Counts[j] > y.Latency.Counts[j] {
						return false
					}
				}
			}
		}
		return true
	}
	for round := 0; round < 200; round++ {
		s1 := r.Snapshot()
		s2 := r.Snapshot()
		if !leq(s1, s2) {
			t.Fatalf("round %d: earlier snapshot exceeds later one", round)
		}
	}
	close(stop)
	wg.Wait()
	final := r.Snapshot()
	var n uint64
	for op := Op(0); op < NumOps; op++ {
		if final.Engines[0].Ops[op].Count != final.Engines[0].Ops[op].Latency.N {
			t.Errorf("op %s: count %d != latency N %d", op,
				final.Engines[0].Ops[op].Count, final.Engines[0].Ops[op].Latency.N)
		}
		n += final.Engines[0].Ops[op].Count
	}
	if ops, _ := r.Totals(); ops != n {
		t.Errorf("totals %d != snapshot sum %d", ops, n)
	}
}

func TestGaugeSampling(t *testing.T) {
	r := NewRegistry([]string{"db"})
	em := r.Engine("db")
	if _, ok := em.SampleGauges(); ok {
		t.Error("gauges reported before a sampler is wired")
	}
	em.SetGaugeFunc(func() Gauges {
		return Gauges{Records: 7, LoadFactor: 0.5, AMAL: 1.25, Spilled: 1}
	})
	g, ok := em.SampleGauges()
	if !ok || g.Records != 7 || g.AMAL != 1.25 {
		t.Errorf("gauges = %+v, ok=%v", g, ok)
	}
	s := r.Snapshot()
	if !s.Engines[0].HasGauges || s.Engines[0].Gauges.Spilled != 1 {
		t.Errorf("snapshot gauges = %+v", s.Engines[0])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry([]string{"db"})
	em := r.Engine("db")
	em.Observe(OpSearch, time.Microsecond, nil)
	em.Observe(OpSearch, 2*time.Microsecond, errors.New("x"))
	em.SetGaugeFunc(func() Gauges { return Gauges{Records: 3, LoadFactor: 0.25, AMAL: 1.5} })
	r.AddUnknown(4)

	out := prom(t, r.Exposition())
	for _, want := range []string{
		`caram_ops_total{engine="db",engine_type="exact",op="search"} 2`,
		`caram_op_errors_total{engine="db",engine_type="exact",op="search"} 1`,
		`caram_op_latency_seconds_count{engine="db",engine_type="exact",op="search"} 2`,
		`caram_op_latency_seconds_bucket{engine="db",engine_type="exact",op="search",le="+Inf"} 2`,
		`caram_ops_total{engine="db",engine_type="exact",op="insert"} 0`,
		`caram_engine_records{engine="db",engine_type="exact"} 3`,
		`caram_engine_load_factor{engine="db",engine_type="exact"} 0.25`,
		`caram_engine_amal{engine="db",engine_type="exact"} 1.5`,
		"caram_unknown_engine_total 4",
		"# TYPE caram_op_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Latency buckets must be cumulative and end at the count.
	if !strings.Contains(out, `le="+Inf"} 2`) {
		t.Error("missing +Inf closing bucket")
	}
}

// TestClampedBucketHasNoFiniteEdge: the last bucket of either histogram
// takes everything past the edge before it (a 10 s request, a 5 000-line
// burst), so it has no finite upper bound to print — no finite `le` may
// count such an observation, and +Inf alone closes the series.
func TestClampedBucketHasNoFiniteEdge(t *testing.T) {
	r := NewRegistry([]string{"db"})
	r.Engine("db").Observe(OpSearch, 10*time.Second, nil)
	rm := NewRouterMetrics([]string{"b0"})
	rm.Backend(0).ObserveBurst(5000)
	for _, out := range []string{prom(t, r.Exposition()), prom(t, rm.Exposition())} {
		infs := 0
		for _, line := range strings.Split(out, "\n") {
			switch {
			case !strings.Contains(line, "_bucket{"):
			case strings.Contains(line, `le="+Inf"`):
				if strings.HasSuffix(line, "} 1") {
					infs++
				}
			case !strings.HasSuffix(line, "} 0"):
				t.Errorf("a finite bucket counts an observation past the last edge: %s", line)
			}
		}
		if infs != 1 {
			t.Errorf("want exactly one +Inf bucket holding the observation, got %d in\n%s", infs, out)
		}
	}
}

func TestObserveBatch(t *testing.T) {
	r := NewRegistry([]string{"db"})
	em := r.Engine("db")
	// A 64-item batch measured with one clock pair must advance count,
	// errors, and histogram observations together, each item carrying
	// the per-item share of the batch duration.
	em.ObserveBatch(OpMSearch, 64*time.Microsecond, 64, 3)
	if got := em.Count(OpMSearch); got != 64 {
		t.Fatalf("Count = %d, want 64", got)
	}
	if got := em.Errors(OpMSearch); got != 3 {
		t.Fatalf("Errors = %d, want 3", got)
	}
	h := em.Latency(OpMSearch).Snapshot()
	if h.N != 64 {
		t.Fatalf("Latency N = %d, want 64 (must equal Count)", h.N)
	}
	if h.SumNs != 64*int64(time.Microsecond) {
		t.Fatalf("SumNs = %d, want %d", h.SumNs, 64*int64(time.Microsecond))
	}
	if mean := h.MeanNs(); mean != float64(time.Microsecond) {
		t.Fatalf("MeanNs = %v, want %v", mean, float64(time.Microsecond))
	}
	// Zero-sized batches are ignored entirely.
	em.ObserveBatch(OpMSearch, time.Second, 0, 0)
	if got := em.Count(OpMSearch); got != 64 {
		t.Fatalf("Count after empty batch = %d, want 64", got)
	}
	// ObserveN floors negative durations at zero like Observe.
	var hist Histogram
	hist.ObserveN(-5, 2)
	if hist.N() != 2 || hist.sumNs.Load() != 0 {
		t.Fatalf("negative ObserveN: N=%d sum=%d", hist.N(), hist.sumNs.Load())
	}
}
