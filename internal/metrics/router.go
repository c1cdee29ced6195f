package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
)

// Router-side metric families (cmd/caram-router). The router is a
// forwarding tier, so its observability is per-backend, not
// per-engine: how many operations each backend absorbed, how deep its
// pipelines run, how well request coalescing works (the burst-size
// histogram — the whole point of the pipelined pools), and whether its
// circuit breaker is open.
const (
	FamRouterOps          = "caram_router_backend_ops_total"
	FamRouterErrors       = "caram_router_backend_errors_total"
	FamRouterRetries      = "caram_router_backend_retries_total"
	FamRouterBreakerTrips = "caram_router_backend_breaker_trips_total"
	FamRouterBreakerOpen  = "caram_router_backend_breaker_open"
	FamRouterInflight     = "caram_router_backend_inflight"
	FamRouterBurst        = "caram_router_burst_size"
)

// burstBuckets is the power-of-two bucket count of the burst-size
// histogram: bucket i counts bursts of size in (2^(i-1), 2^i], so 12
// buckets cover bursts of 1 request up to 2048 per flush.
const burstBuckets = 12

// RouterBackend is one backend's slot: lock-free counters recorded by
// the pool on the forward path (atomic adds, no allocation).
type RouterBackend struct {
	name string

	ops     atomic.Uint64 // requests submitted to this backend
	errs    atomic.Uint64 // requests that failed (transport or shed)
	retries atomic.Uint64 // idempotent SEARCH resubmissions

	breakerTrips atomic.Uint64 // times the breaker opened
	breakerOpen  atomic.Int64  // 1 while open, 0 while closed

	inflight atomic.Int64 // pipeline depth: submitted, not yet answered

	burstN   atomic.Uint64 // bursts flushed
	burstSum atomic.Uint64 // requests across all bursts
	burst    [burstBuckets]atomic.Uint64
}

// Name returns the backend label the slot was registered under.
func (b *RouterBackend) Name() string { return b.name }

// AddOps counts n submitted requests (the pool records a whole batch
// with one add). Nil-safe like every recorder here, so an unmetered
// pool costs only the nil check.
func (b *RouterBackend) AddOps(n int) {
	if b != nil {
		b.ops.Add(uint64(n))
	}
}

// AddErrs counts n failed requests.
func (b *RouterBackend) AddErrs(n int) {
	if b != nil {
		b.errs.Add(uint64(n))
	}
}

// IncRetries counts one idempotent resubmission.
func (b *RouterBackend) IncRetries() {
	if b != nil {
		b.retries.Add(1)
	}
}

// DepthAdd moves the pipeline-depth gauge by d (+n when a batch of n
// requests is submitted, -n when it completes).
func (b *RouterBackend) DepthAdd(d int64) {
	if b != nil {
		b.inflight.Add(d)
	}
}

// SetBreaker records the breaker state; opening increments the trip
// counter.
func (b *RouterBackend) SetBreaker(open bool) {
	if b == nil {
		return
	}
	if open {
		if b.breakerOpen.Swap(1) == 0 {
			b.breakerTrips.Add(1)
		}
	} else {
		b.breakerOpen.Store(0)
	}
}

// ObserveBurst records one write burst of n coalesced requests.
func (b *RouterBackend) ObserveBurst(n int) {
	if b == nil || n <= 0 {
		return
	}
	i := 0
	for s := n - 1; s > 0; s >>= 1 { // bucket i spans (2^(i-1), 2^i]
		i++
	}
	if i >= burstBuckets {
		i = burstBuckets - 1
	}
	b.burst[i].Add(1)
	b.burstN.Add(1)
	b.burstSum.Add(uint64(n))
}

// Ops returns the submitted-request count.
func (b *RouterBackend) Ops() uint64 { return b.ops.Load() }

// Errs returns the failed-request count.
func (b *RouterBackend) Errs() uint64 { return b.errs.Load() }

// Retries returns the resubmission count.
func (b *RouterBackend) Retries() uint64 { return b.retries.Load() }

// Inflight returns the current pipeline depth.
func (b *RouterBackend) Inflight() int64 { return b.inflight.Load() }

// BreakerOpen reports whether the breaker gauge is raised.
func (b *RouterBackend) BreakerOpen() bool { return b.breakerOpen.Load() != 0 }

// Bursts returns the burst count and the mean burst size.
func (b *RouterBackend) Bursts() (n uint64, mean float64) {
	n = b.burstN.Load()
	if n == 0 {
		return 0, 0
	}
	return n, float64(b.burstSum.Load()) / float64(n)
}

// RouterMetrics is the router's registry: one fixed slot per backend,
// frozen at construction (the backend set is static for a router
// process), so every lookup is an index and every record an atomic op.
type RouterMetrics struct {
	slots []RouterBackend
}

// NewRouterMetrics builds a registry with one slot per backend label.
func NewRouterMetrics(backends []string) *RouterMetrics {
	rm := &RouterMetrics{slots: make([]RouterBackend, len(backends))}
	for i, n := range backends {
		rm.slots[i].name = n
	}
	return rm
}

// Backend returns slot i, or nil when the registry itself is nil (an
// unmetered router) — callers chain the nil-safe recorders without
// checking.
func (rm *RouterMetrics) Backend(i int) *RouterBackend {
	if rm == nil {
		return nil
	}
	return &rm.slots[i]
}

// Backends returns the slot count.
func (rm *RouterMetrics) Backends() int {
	if rm == nil {
		return 0
	}
	return len(rm.slots)
}

// Totals sums ops and errors across backends.
func (rm *RouterMetrics) Totals() (ops, errs uint64) {
	if rm == nil {
		return 0, 0
	}
	for i := range rm.slots {
		ops += rm.slots[i].ops.Load()
		errs += rm.slots[i].errs.Load()
	}
	return ops, errs
}

// WriteRouterPrometheus renders the router families in the Prometheus
// text exposition format.
func WriteRouterPrometheus(w io.Writer, rm *RouterMetrics) error {
	bw := &errWriter{w: w}
	counter := func(fam, help string, val func(*RouterBackend) uint64) {
		bw.printf("# HELP %s %s\n# TYPE %s counter\n", fam, help, fam)
		for i := range rm.slots {
			b := &rm.slots[i]
			bw.printf("%s{backend=%q} %d\n", fam, b.name, val(b))
		}
	}
	counter(FamRouterOps, "Requests submitted to the backend's connection pool.",
		func(b *RouterBackend) uint64 { return b.ops.Load() })
	counter(FamRouterErrors, "Requests that failed against the backend (transport error or shed).",
		func(b *RouterBackend) uint64 { return b.errs.Load() })
	counter(FamRouterRetries, "Idempotent SEARCH requests resubmitted on a fresh connection.",
		func(b *RouterBackend) uint64 { return b.retries.Load() })
	counter(FamRouterBreakerTrips, "Times the backend's circuit breaker opened.",
		func(b *RouterBackend) uint64 { return b.breakerTrips.Load() })

	bw.printf("# HELP %s 1 while the backend's circuit breaker is open, 0 while closed.\n# TYPE %s gauge\n",
		FamRouterBreakerOpen, FamRouterBreakerOpen)
	for i := range rm.slots {
		bw.printf("%s{backend=%q} %d\n", FamRouterBreakerOpen, rm.slots[i].name, rm.slots[i].breakerOpen.Load())
	}
	bw.printf("# HELP %s Requests submitted to the backend and not yet answered (pipeline depth).\n# TYPE %s gauge\n",
		FamRouterInflight, FamRouterInflight)
	for i := range rm.slots {
		bw.printf("%s{backend=%q} %d\n", FamRouterInflight, rm.slots[i].name, rm.slots[i].inflight.Load())
	}

	bw.printf("# HELP %s Requests coalesced per write burst (one flush per bucket'd burst).\n# TYPE %s histogram\n",
		FamRouterBurst, FamRouterBurst)
	for i := range rm.slots {
		b := &rm.slots[i]
		var cum uint64
		for j := 0; j < burstBuckets; j++ {
			c := b.burst[j].Load()
			cum += c
			if c == 0 && cum == 0 {
				continue
			}
			bw.printf("%s_bucket{backend=%q,le=\"%d\"} %d\n", FamRouterBurst, b.name, 1<<uint(j), cum)
		}
		bw.printf("%s_bucket{backend=%q,le=\"+Inf\"} %d\n", FamRouterBurst, b.name, b.burstN.Load())
		bw.printf("%s_sum{backend=%q} %d\n", FamRouterBurst, b.name, b.burstSum.Load())
		bw.printf("%s_count{backend=%q} %d\n", FamRouterBurst, b.name, b.burstN.Load())
	}
	writeBuildInfo(bw)
	return bw.err
}

// RouterHandler serves the router registry over HTTP: /metrics in the
// Prometheus exposition plus the standard pprof endpoints — the
// router-tier counterpart of Handler.
func RouterHandler(rm *RouterMetrics, opts ...HandlerOption) http.Handler {
	return newMux(func(w io.Writer) error { return WriteRouterPrometheus(w, rm) }, opts)
}

// String renders a compact one-line summary (the router's wire-level
// METRICS reply body): per-registry totals only, deterministic.
func (rm *RouterMetrics) String() string {
	ops, errs := rm.Totals()
	return fmt.Sprintf("backends=%d ops=%d errors=%d", rm.Backends(), ops, errs)
}
