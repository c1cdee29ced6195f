package metrics

import "sync/atomic"

// burstBounds is how many of SizeBuckets the burst-size family
// declares: 1 to 1024, every larger burst in +Inf.
const burstBounds = 11

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

	burst SizeHistogram // requests per flushed burst
}

// Name returns the backend label the slot was registered under.
func (b *RouterBackend) Name() string { return b.name }

// AddOps counts n submitted requests (the pool records a whole batch
// with one add). Nil-safe like every recorder here, so an unmetered
// pool (the ladder's bare NewPool) costs only the nil check.
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
	if b != nil {
		b.burst.Observe(n)
	}
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
	n = b.burst.n.Load()
	if n == 0 {
		return 0, 0
	}
	return n, float64(b.burst.sum.Load()) / float64(n)
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

// Backend returns slot i.
func (rm *RouterMetrics) Backend(i int) *RouterBackend { return &rm.slots[i] }

// Totals sums ops and errors across backends (the router_ops and
// router_errors of the fleet METRICS reply).
func (rm *RouterMetrics) Totals() (ops, errs uint64) {
	for i := range rm.slots {
		ops += rm.slots[i].ops.Load()
		errs += rm.slots[i].errs.Load()
	}
	return ops, errs
}

// Exposition is the router tier's /metrics: the per-backend families,
// then the process families.
func (rm *RouterMetrics) Exposition() Exposition {
	return Exposition{Bind(func() *RouterMetrics { return rm }, routerFamilies...), Process}
}

// routerFamilies are the router's own families. The router is a
// forwarding tier, so its observability is per backend, not per engine:
// how many operations each backend absorbed, how deep its pipelines run,
// how well request coalescing works (the burst-size histogram — the whole
// point of the pipelined pools), and whether its circuit breaker is open.
var routerFamilies = []Family[*RouterMetrics]{
	{Desc: Desc{Name: "caram_router_backend_ops_total", Help: "Requests submitted to the backend's connection pool.",
		Type: TypeCounter, Labels: backendLabels}, Collect: perBackend(func(b *RouterBackend) any { return b.ops.Load() })},
	{Desc: Desc{Name: "caram_router_backend_errors_total", Help: "Requests that failed against the backend (transport error or shed).",
		Type: TypeCounter, Labels: backendLabels}, Collect: perBackend(func(b *RouterBackend) any { return b.errs.Load() })},
	{Desc: Desc{Name: "caram_router_backend_retries_total", Help: "Idempotent SEARCH requests resubmitted on a fresh connection.",
		Type: TypeCounter, Labels: backendLabels}, Collect: perBackend(func(b *RouterBackend) any { return b.retries.Load() })},
	{Desc: Desc{Name: "caram_router_backend_breaker_trips_total", Help: "Times the backend's circuit breaker opened.",
		Type: TypeCounter, Labels: backendLabels}, Collect: perBackend(func(b *RouterBackend) any { return b.breakerTrips.Load() })},
	{Desc: Desc{Name: "caram_router_backend_breaker_open", Help: "1 while the backend's circuit breaker is open, 0 while closed.",
		Type: TypeGauge, Labels: backendLabels}, Collect: perBackend(func(b *RouterBackend) any { return b.breakerOpen.Load() })},
	{Desc: Desc{Name: "caram_router_backend_inflight", Help: "Requests submitted to the backend and not yet answered (pipeline depth).",
		Type: TypeGauge, Labels: backendLabels}, Collect: perBackend(func(b *RouterBackend) any { return b.inflight.Load() })},
	{Desc: Desc{Name: "caram_router_burst_size", Help: "Requests coalesced per write burst (one flush per bucket'd burst).",
		Type: TypeHistogram, Labels: backendLabels, Buckets: SizeBuckets[:burstBounds]},
		Collect: func(rm *RouterMetrics, e *Emitter) {
			for i := range rm.slots {
				s := rm.slots[i].burst.Snapshot()
				e.Hist(s.Counts[:], s.N, s.Sum, rm.slots[i].name)
			}
		}},
}

var backendLabels = []string{"backend"}

// perBackend is the collect of a family with one sample per backend.
func perBackend(val func(*RouterBackend) any) func(*RouterMetrics, *Emitter) {
	return func(rm *RouterMetrics, e *Emitter) {
		for i := range rm.slots {
			e.Sample(val(&rm.slots[i]), rm.slots[i].name)
		}
	}
}
