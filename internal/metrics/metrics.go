// Package metrics is the serving path's observability layer: per-engine,
// per-operation counters and bounded latency histograms, plus engine-level
// gauges sampled live from the CA-RAM core (load factor, probe count /
// AMAL, spilled records). The paper's headline quantity — AMAL, the
// average number of memory accesses per lookup (§3.4) — is computed
// offline by internal/exp; this package puts the same quantity on the
// wire for a running server, measured over the live traffic instead of a
// synthetic trace.
//
// The hot path is lock-free: every engine and operation gets a fixed
// slot of atomic counters at registration time, so recording one
// observation is two or three atomic adds and never allocates. Reads
// (Snapshot, the Prometheus exposition) use atomic loads; a snapshot
// taken mid-traffic is not a single instant but is monotone — every
// counter in it is ≤ the same counter in any later snapshot.
package metrics

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/wire"
)

// Op enumerates the instrumented operations, matching the wire commands
// of internal/server.
type Op uint8

const (
	OpInsert Op = iota
	OpSearch
	OpDelete
	OpMSearch
	// NumOps sizes per-op arrays.
	NumOps
)

// String returns the lower-case metric label for the op.
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpSearch:
		return "search"
	case OpDelete:
		return "delete"
	case OpMSearch:
		return "msearch"
	}
	return "unknown"
}

// ParseOp maps a wire-command word (any case) to its Op: the four verbs
// of the protocol's table that the registry times.
func ParseOp(s string) (Op, error) {
	if v := wire.Lookup(s); v != nil {
		switch v.ID {
		case wire.Insert:
			return OpInsert, nil
		case wire.Search:
			return OpSearch, nil
		case wire.Delete:
			return OpDelete, nil
		case wire.MSearch:
			return OpMSearch, nil
		}
	}
	return 0, errors.New("metrics: unknown op " + s)
}

// Gauges is one sample of an engine's live state, read from the CA-RAM
// core under the engine's read lock. LoadFactor is the paper's α;
// AMAL is RowsAccessed/Lookups over the engine's lifetime traffic —
// the measured counterpart of the §3.4 analytic access cost; Spilled
// counts main-array records stored outside their home bucket. The
// fault-tolerance block mirrors the engine's availability state and
// error-coding counters: Health is the subsystem.Health value
// (0 healthy, 1 degraded, 2 failed), Quarantined the rows currently
// out of service. ReadRetries counts torn seqlock snapshots the
// lock-free search path re-read; LockFallbacks counts searches that
// escalated from the lock-free path to the serialized one.
type Gauges struct {
	Records      int
	LoadFactor   float64
	AMAL         float64
	Lookups      uint64
	RowsAccessed uint64
	Hits         uint64
	Misses       uint64
	Spilled      int

	Health            int
	Quarantined       int
	EccCorrected      uint64
	EccUncorrectable  uint64
	EccReadErrors     uint64
	ScrubRepairedBits uint64

	ReadRetries   uint64
	LockFallbacks uint64
}

// Registry holds the metrics of the registered engines. The roster is
// copy-on-write: lookups by name do one atomic load and index an
// immutable map (the hot path never takes a lock), while Register and
// Unregister — the CREATE ENGINE / DROP ENGINE path — serialize on a
// mutex and swap in a fresh snapshot.
type Registry struct {
	mu      sync.Mutex // serializes roster writers
	set     atomic.Pointer[registrySet]
	unknown atomic.Uint64 // requests addressed to no registered engine
}

// registrySet is one immutable roster snapshot.
type registrySet struct {
	order   []string
	engines map[string]*EngineMetrics
}

// newEngineMetrics builds one engine's slot.
func newEngineMetrics(name, typ string) *EngineMetrics {
	return &EngineMetrics{name: name, typ: typ}
}

// NewRegistry builds a registry with one metrics slot per engine name,
// each of the default "exact" engine type (SetType adjusts it during
// instrumentation).
func NewRegistry(names []string) *Registry {
	set := &registrySet{
		order:   append([]string(nil), names...),
		engines: make(map[string]*EngineMetrics, len(names)),
	}
	for _, n := range set.order {
		set.engines[n] = newEngineMetrics(n, "exact")
	}
	r := &Registry{}
	r.set.Store(set)
	return r
}

// Register adds an engine slot of the given type to a live registry
// and returns it; registering an existing name returns the existing
// slot unchanged.
func (r *Registry) Register(name, typ string) *EngineMetrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.set.Load()
	if em, ok := cur.engines[name]; ok {
		return em
	}
	em := newEngineMetrics(name, typ)
	next := &registrySet{
		order:   append(append(make([]string, 0, len(cur.order)+1), cur.order...), name),
		engines: make(map[string]*EngineMetrics, len(cur.engines)+1),
	}
	for k, v := range cur.engines {
		next.engines[k] = v
	}
	next.engines[name] = em
	r.set.Store(next)
	return em
}

// Unregister removes an engine slot from a live registry; its counters
// drop out of subsequent snapshots and expositions. Unknown names are
// a no-op.
func (r *Registry) Unregister(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.set.Load()
	if _, ok := cur.engines[name]; !ok {
		return
	}
	next := &registrySet{
		order:   make([]string, 0, len(cur.order)-1),
		engines: make(map[string]*EngineMetrics, len(cur.engines)-1),
	}
	for _, n := range cur.order {
		if n != name {
			next.order = append(next.order, n)
		}
	}
	for k, v := range cur.engines {
		if k != name {
			next.engines[k] = v
		}
	}
	r.set.Store(next)
}

// Engine returns the named engine's metrics, or nil when unknown (or
// when the registry itself is nil — callers may be uninstrumented).
func (r *Registry) Engine(name string) *EngineMetrics {
	if r == nil {
		return nil
	}
	return r.set.Load().engines[name]
}

// Engines lists engine names in registration order.
func (r *Registry) Engines() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.set.Load().order...)
}

// AddUnknown counts n requests that named no registered engine. Safe on
// a nil registry.
func (r *Registry) AddUnknown(n uint64) {
	if r == nil {
		return
	}
	r.unknown.Add(n)
}

// Unknown returns the unknown-engine request count.
func (r *Registry) Unknown() uint64 {
	if r == nil {
		return 0
	}
	return r.unknown.Load()
}

// Totals sums op and error counts across all engines and ops.
func (r *Registry) Totals() (ops, errs uint64) {
	if r == nil {
		return 0, 0
	}
	set := r.set.Load()
	for _, name := range set.order {
		em := set.engines[name]
		for op := Op(0); op < NumOps; op++ {
			ops += em.ops[op].lat.N()
			errs += em.ops[op].errs.Load()
		}
	}
	return ops, errs
}

// EngineMetrics is one engine's slot: per-op counters and latency
// histograms, plus an optional gauge sampler wired by the concurrency
// layer. SetGaugeFunc must be called before the registry is shared
// across goroutines (it is part of instrumentation, not of serving).
type EngineMetrics struct {
	name   string
	typ    string // engine_type label value ("exact", "lpm", ...)
	ops    [NumOps]opMetrics
	gauges func() Gauges
}

// opMetrics is one op's error counter and latency histogram. The op
// count is not kept beside them: every completed operation lands in the
// histogram, so the count is the histogram's N — one atomic add fewer
// per operation, and Latency(op).N() == Count(op) by construction.
type opMetrics struct {
	errs atomic.Uint64
	lat  Histogram
}

// Name returns the engine name the slot was registered under.
func (m *EngineMetrics) Name() string { return m.name }

// Type returns the engine's type label value.
func (m *EngineMetrics) Type() string { return m.typ }

// SetType sets the engine_type label. Like SetGaugeFunc it is part of
// instrumentation: call it before the registry serves concurrent
// traffic (Register sets it atomically for engines created live).
func (m *EngineMetrics) SetType(t string) { m.typ = t }

// Observe records one completed operation: its kind, wall-clock
// duration, and outcome. The duration lands in the op's bounded
// latency histogram; err only increments the error counter (errors are
// legitimate responses — full engine, unknown key — and their latency
// is as real as a hit's).
func (m *EngineMetrics) Observe(op Op, d time.Duration, err error) {
	o := &m.ops[op]
	if err != nil {
		o.errs.Add(1)
	}
	o.lat.Observe(int64(d))
}

// ObserveBatch records n completed operations of one kind measured with
// a single clock pair: d is the whole batch's wall-clock duration, and
// each operation is attributed the per-item share d/n, so the op count
// (the histogram's observation count) advances by n. errs counts how
// many of the n returned errors.
func (m *EngineMetrics) ObserveBatch(op Op, d time.Duration, n, errs uint64) {
	if n == 0 {
		return
	}
	o := &m.ops[op]
	if errs > 0 {
		o.errs.Add(errs)
	}
	o.lat.ObserveN(int64(d)/int64(n), n)
}

// Count returns the op's completed-operation count.
func (m *EngineMetrics) Count(op Op) uint64 { return m.ops[op].lat.N() }

// Errors returns the op's error count.
func (m *EngineMetrics) Errors(op Op) uint64 { return m.ops[op].errs.Load() }

// Latency returns the op's latency histogram.
func (m *EngineMetrics) Latency(op Op) *Histogram { return &m.ops[op].lat }

// SetGaugeFunc installs the live-state sampler. It is called during
// instrumentation, before the registry serves concurrent traffic.
func (m *EngineMetrics) SetGaugeFunc(f func() Gauges) { m.gauges = f }

// SampleGauges runs the installed sampler, or returns ok=false when
// none is wired.
func (m *EngineMetrics) SampleGauges() (Gauges, bool) {
	if m.gauges == nil {
		return Gauges{}, false
	}
	return m.gauges(), true
}

// OpSnapshot is one op's counters at a point in time.
type OpSnapshot struct {
	Op      Op
	Count   uint64
	Errors  uint64
	Latency HistSnapshot
}

// EngineSnapshot is one engine's counters and gauges at a point in time.
type EngineSnapshot struct {
	Name      string
	Type      string
	Ops       [NumOps]OpSnapshot
	Gauges    Gauges
	HasGauges bool
}

// Snapshot is a monotone view of the whole registry: counters are read
// atomically, so a snapshot taken mid-traffic never exceeds a later one.
type Snapshot struct {
	Engines []EngineSnapshot
	Unknown uint64
}

// Snapshot captures every engine's counters, histograms and gauges.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	set := r.set.Load()
	s := Snapshot{
		Engines: make([]EngineSnapshot, 0, len(set.order)),
		Unknown: r.unknown.Load(),
	}
	for _, name := range set.order {
		em := set.engines[name]
		es := EngineSnapshot{Name: name, Type: em.typ}
		for op := Op(0); op < NumOps; op++ {
			lat := em.ops[op].lat.Snapshot()
			es.Ops[op] = OpSnapshot{Op: op, Count: lat.N, Errors: em.ops[op].errs.Load(), Latency: lat}
		}
		es.Gauges, es.HasGauges = em.SampleGauges()
		s.Engines = append(s.Engines, es)
	}
	return s
}

// Exposition is the server tier's /metrics: the engine families over one
// Snapshot per scrape, then extra — the families of layers this package
// does not import (the write-ahead log's) — then the process families.
func (r *Registry) Exposition(extra ...Group) Exposition {
	x := Exposition{Bind(r.Snapshot, engineFamilies...)}
	return append(append(x, extra...), Process)
}

var (
	opLabels     = []string{"engine", "engine_type", "op"}
	engineLabels = []string{"engine", "engine_type"}
)

// engineFamilies are the per-engine families. Zero-count ops keep their
// series, so rates are defined from the first scrape; the gauge families
// show only the engines that have a sampler, each sampled once per scrape
// (Snapshot) whatever the number of families that read it.
var engineFamilies = []Family[Snapshot]{
	{Desc: Desc{Name: "caram_ops_total", Help: "Operations processed, by engine and op.",
		Type: TypeCounter, Labels: opLabels}, Collect: perOp(func(o OpSnapshot) any { return o.Count })},
	{Desc: Desc{Name: "caram_op_errors_total", Help: "Operations that returned an error, by engine and op.",
		Type: TypeCounter, Labels: opLabels}, Collect: perOp(func(o OpSnapshot) any { return o.Errors })},
	{Desc: Desc{Name: "caram_op_latency_seconds", Help: "Wall-clock operation latency: lock-free searches are timed end to end, serialized ops at the engine lock boundary (writer lock wait included).",
		Type: TypeHistogram, Labels: opLabels, Buckets: LatencyBuckets},
		Collect: func(s Snapshot, e *Emitter) {
			for _, es := range s.Engines {
				for _, o := range es.Ops {
					e.Latency(o.Latency, es.Name, es.Type, o.Op.String())
				}
			}
		}},
	{Desc: Desc{Name: "caram_engine_records", Help: "Records stored in the engine's main array.",
		Type: TypeGauge, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.Records })},
	{Desc: Desc{Name: "caram_engine_load_factor", Help: "Load factor alpha of the engine's main array.",
		Type: TypeGauge, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.LoadFactor })},
	{Desc: Desc{Name: "caram_engine_amal", Help: "Average memory accesses per lookup over live traffic (the paper's AMAL, section 3.4).",
		Type: TypeGauge, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.AMAL })},
	{Desc: Desc{Name: "caram_engine_lookups_total", Help: "Lookups charged against the engine's main array.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.Lookups })},
	{Desc: Desc{Name: "caram_engine_rows_accessed_total", Help: "Rows read by lookups (AMAL numerator).",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.RowsAccessed })},
	{Desc: Desc{Name: "caram_engine_hits_total", Help: "Lookups that found a record.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.Hits })},
	{Desc: Desc{Name: "caram_engine_misses_total", Help: "Lookups that found nothing.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.Misses })},
	{Desc: Desc{Name: "caram_engine_spilled_records", Help: "Main-array records stored outside their home bucket.",
		Type: TypeGauge, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.Spilled })},
	{Desc: Desc{Name: "caram_engine_health", Help: "Engine availability state: 0 healthy, 1 degraded, 2 failed (circuit broken).",
		Type: TypeGauge, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.Health })},
	{Desc: Desc{Name: "caram_engine_quarantined_rows", Help: "Main-array rows quarantined as uncorrectable, pending scrub.",
		Type: TypeGauge, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.Quarantined })},
	{Desc: Desc{Name: "caram_engine_ecc_corrected_bits_total", Help: "Single-bit errors corrected in place by per-row error coding.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.EccCorrected })},
	{Desc: Desc{Name: "caram_engine_ecc_uncorrectable_total", Help: "Uncorrectable row errors detected (each quarantines its row).",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.EccUncorrectable })},
	{Desc: Desc{Name: "caram_engine_row_read_errors_total", Help: "Transient row-read failures observed by checked fetches.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.EccReadErrors })},
	{Desc: Desc{Name: "caram_engine_scrub_repaired_bits_total", Help: "Corrupt bits restored from the insert-side shadow by scrub passes.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.ScrubRepairedBits })},
	{Desc: Desc{Name: "caram_search_retries_total", Help: "Torn seqlock snapshots re-read by the lock-free search path.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.ReadRetries })},
	{Desc: Desc{Name: "caram_search_lock_fallbacks_total", Help: "Searches escalated from the lock-free path to the serialized engine lock.",
		Type: TypeCounter, Labels: engineLabels}, Collect: perEngine(func(g Gauges) any { return g.LockFallbacks })},
	{Desc: Desc{Name: "caram_unknown_engine_total", Help: "Requests addressed to no registered engine.",
		Type: TypeCounter}, Collect: Scalar(func(s Snapshot) any { return s.Unknown })},
}

// perOp is the collect of a family with one sample per engine and op.
func perOp(val func(OpSnapshot) any) func(Snapshot, *Emitter) {
	return func(s Snapshot, e *Emitter) {
		for _, es := range s.Engines {
			for _, o := range es.Ops {
				e.Sample(val(o), es.Name, es.Type, o.Op.String())
			}
		}
	}
}

// perEngine is the collect of a gauge family: one sample per engine that
// has a gauge sampler.
func perEngine(val func(Gauges) any) func(Snapshot, *Emitter) {
	return func(s Snapshot, e *Emitter) {
		for _, es := range s.Engines {
			if es.HasGauges {
				e.Sample(val(es.Gauges), es.Name, es.Type)
			}
		}
	}
}
