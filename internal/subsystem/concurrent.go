package subsystem

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/match"
	"caram/internal/metrics"
	"caram/internal/trace"
)

// Concurrent is the thread-safe dispatch layer over a fully-registered
// Subsystem — the software counterpart of §3.2's observation that
// "multiple lookup actions [can be] simultaneously in progress in
// different CA-RAM slices". Each engine gets its own mutex and a pool
// of lock-free Readers:
//
//   - INSERT / DELETE / Scrub on one engine serialize under the engine
//     mutex (a slice has a single row port for writes), while the same
//     operations on distinct engines run fully in parallel;
//   - SEARCH / MSEARCH / Explain are wait-free: they run on
//     per-goroutine caram.Readers over the array's per-row seqlock,
//     performing no mutex operations at all — any number may overlap
//     with each other AND with the engine's one writer. A read the
//     seqlock protocol cannot certify (torn past the retry budget,
//     quarantined row, check-word mismatch) falls back to the
//     serialized path, which owns the ECC protocol;
//   - read-only inspection (Info, HealthInfo, ExpectedRows) takes the
//     read lock — it is off the hot path;
//   - an MSEARCH runs on its caller: its engines' groups one after
//     another, each on the path above that its engine takes. The layer
//     starts no goroutine of its own.
//
// Once a Subsystem is wrapped, all access must go through the
// Concurrent layer; using the bare Subsystem or its engines directly
// alongside it would bypass the locks.
//
// An optional metrics registry (Instrument) observes every op, timed
// from admission (so a serialized op's latency includes its lock wait,
// the true service latency under contention). The operations
// themselves are one executor: see the stage list above admit.
type Concurrent struct {
	// set is the current engine roster, copy-on-write: op paths do one
	// atomic load and index an immutable map, so the hot path stays
	// exactly as cheap as the pre-dynamic frozen map. setMu serializes
	// the writers (CreateEngine, DropEngine, Close).
	set   atomic.Pointer[engineSet]
	setMu sync.Mutex
	met   *metrics.Registry // nil when uninstrumented

	// jr, when non-nil, receives one journal record per applied
	// mutation and roster change (SetJournal). rosterLSN is the LSN of
	// the last CREATE/DROP reflected in the roster — written under
	// setMu, captured by SnapshotImage as the roster replay gate.
	jr        Journal
	rosterLSN uint64

	// down gates every operation after Close: a single atomic load on
	// the op path.
	down atomic.Bool

	// spare is the scratch MSearch borrows, so that an unserved batch
	// allocates only its answer (a caller that finds it taken makes one).
	spare atomic.Pointer[MSearchScratch]
}

// engineSet is one immutable roster snapshot.
type engineSet struct {
	order []string
	m     map[string]*guardedEngine
}

// engine resolves a port against the current roster: one atomic load,
// no locks — the dispatch hot path.
func (c *Concurrent) engine(port string) (*guardedEngine, bool) {
	g, ok := c.set.Load().m[port]
	return g, ok
}

// guardedEngine pairs an engine with its port lock, the placement
// stats the subsystem tracks for it, and the machinery of the
// lock-free read path.
type guardedEngine struct {
	mu sync.RWMutex
	e  *Engine
	st *EngineStats
	em *metrics.EngineMetrics // nil when uninstrumented

	// readers caches per-goroutine caram.Readers; each carries its own
	// match kernel and result scratch, so a cached Reader is reused
	// without any cross-goroutine shared mutable state.
	readers *readerCache
	// retries counts torn rows re-read by this engine's
	// lock-free searches; fallbacks counts searches that escalated to
	// the serialized path. Exported as caram_search_retries_total /
	// caram_search_lock_fallbacks_total.
	retries   atomic.Uint64
	fallbacks atomic.Uint64

	// health is the engine's availability state (a Health value). It is
	// read lock-free by the circuit breaker and written only while the
	// engine lock is held: raised monotonically as faults are observed,
	// lowered only by Scrub (the episode boundary).
	health atomic.Int32
}

// raiseTo lifts the engine's health state to at least h, never
// lowering it — the per-episode monotonicity contract.
func (g *guardedEngine) raiseTo(h Health) {
	for {
		cur := Health(g.health.Load())
		if cur >= h {
			return
		}
		if g.health.CompareAndSwap(int32(cur), int32(h)) {
			return
		}
	}
}

// readerCache is a tiny lock-free freelist of caram.Readers. It
// stands in for sync.Pool on the search hot path because the pool
// deliberately drops items under the race detector (to shake out
// misuse), which would make the zero-allocation CI guards flaky under
// `-race`; a fixed slot array is deterministic everywhere, costs one
// atomic swap in the common case, and performs no mutex operations —
// the property the wait-free search path is built on. Readers that
// find every slot full on return are simply discarded (they are a few
// hundred bytes of scratch), so the cache never grows.
type readerCache struct {
	newFn func() *caram.Reader
	slots []atomic.Pointer[caram.Reader]
}

func newReaderCache(newFn func() *caram.Reader) *readerCache {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return &readerCache{newFn: newFn, slots: make([]atomic.Pointer[caram.Reader], n)}
}

func (p *readerCache) get() *caram.Reader {
	for i := range p.slots {
		if rd := p.slots[i].Swap(nil); rd != nil {
			return rd
		}
	}
	return p.newFn()
}

func (p *readerCache) put(rd *caram.Reader) {
	for i := range p.slots {
		if p.slots[i].CompareAndSwap(nil, rd) {
			return
		}
	}
}

// NewConcurrent wraps a subsystem whose engine registration is
// complete. Engines added to the subsystem afterwards are not visible
// through the wrapper.
func NewConcurrent(sub *Subsystem) *Concurrent {
	c := &Concurrent{}
	order := sub.Engines()
	set := &engineSet{order: order, m: make(map[string]*guardedEngine, len(order))}
	for _, name := range order {
		set.m[name] = newGuarded(sub.engines[name], sub.stats[name])
	}
	c.set.Store(set)
	return c
}

// newGuarded wraps one engine with its port lock and the lock-free
// read machinery.
func newGuarded(e *Engine, st *EngineStats) *guardedEngine {
	return &guardedEngine{e: e, st: st, readers: newReaderCache(e.Main.NewReader)}
}

// CreateEngine adds a typed engine to a live layer: the engine is
// built (NewTypedEngine), registered in the metrics registry when the
// layer is instrumented, and published by swapping in a new roster
// snapshot — concurrent operations on other engines never block or
// even notice. The name must be new; CreateEngine after Close fails
// with ErrClosed.
func (c *Concurrent) CreateEngine(name string, typ EngineType, tc TypedConfig) error {
	c.setMu.Lock()
	defer c.setMu.Unlock()
	if c.down.Load() {
		return ErrClosed
	}
	cur := c.set.Load()
	if _, dup := cur.m[name]; dup {
		return fmt.Errorf("subsystem: engine %q already registered", name)
	}
	e, err := NewTypedEngine(name, typ, tc)
	if err != nil {
		return err
	}
	if e.AppliedLSN, err = c.logRoster(JournalEntry{Op: JournalCreate, Engine: name, Type: typ, Conf: tc}); err != nil {
		return err
	}
	g := newGuarded(e, &EngineStats{})
	if c.met != nil {
		em := c.met.Register(name, typ.String())
		g.em = em
		em.SetGaugeFunc(func() metrics.Gauges { return c.sampleGauges(g) })
	}
	next := &engineSet{
		order: append(append(make([]string, 0, len(cur.order)+1), cur.order...), name),
		m:     make(map[string]*guardedEngine, len(cur.m)+1),
	}
	for k, v := range cur.m {
		next.m[k] = v
	}
	next.m[name] = g
	c.set.Store(next)
	return nil
}

// DropEngine removes an engine from a live layer: it disappears from
// the roster snapshot (new requests get "no engine"). Operations that
// resolved the engine before the swap — an MSearch share among them —
// complete normally on the retired snapshot: the engine's locks and
// array stay intact, only unreachable. The metrics registry entry is
// removed with it.
func (c *Concurrent) DropEngine(name string) error {
	c.setMu.Lock()
	defer c.setMu.Unlock()
	if c.down.Load() {
		return ErrClosed
	}
	cur := c.set.Load()
	if _, ok := cur.m[name]; !ok {
		return errNoEngine(name)
	}
	if _, err := c.logRoster(JournalEntry{Op: JournalDrop, Engine: name}); err != nil {
		return err
	}
	next := &engineSet{
		order: make([]string, 0, len(cur.order)-1),
		m:     make(map[string]*guardedEngine, len(cur.m)-1),
	}
	for _, n := range cur.order {
		if n != name {
			next.order = append(next.order, n)
		}
	}
	for k, v := range cur.m {
		if k != name {
			next.m[k] = v
		}
	}
	c.set.Store(next)
	if c.met != nil {
		c.met.Unregister(name)
	}
	return nil
}

// logRoster journals one roster change and waits for it to be durable.
// Roster records append under setMu (their lock boundary) and commit
// before the change is published: an acknowledged CREATE or DROP must be
// durable, and one the log rejected must never publish. Without a
// journal it does nothing and the LSN is zero.
func (c *Concurrent) logRoster(ent JournalEntry) (uint64, error) {
	if c.jr == nil {
		return 0, nil
	}
	lsn, err := c.jr.Append(ent)
	if err == nil {
		err = c.jr.Commit(lsn)
	}
	if err != nil {
		return 0, err
	}
	c.rosterLSN = lsn
	return lsn, nil
}

// release returns a Reader to the engine's cache, folding the torn
// snapshots it re-read into the engine's retry telemetry.
func (g *guardedEngine) release(rd *caram.Reader) int {
	n := rd.TakeRetries()
	if n > 0 {
		g.retries.Add(uint64(n))
	}
	g.readers.put(rd)
	return n
}

// Close shuts the layer: afterwards every operation returns ErrClosed
// (per slot for MSearch); only the uncharged read-side inspectors
// (Info, Health, HealthInfo, ...) stay usable. Close is idempotent and
// safe to race with in-flight operations — an op that already passed
// the gate completes normally on its own goroutine.
func (c *Concurrent) Close() {
	c.down.Store(true)
}

// Instrument attaches a metrics registry: every subsequent
// INSERT/SEARCH/DELETE/MSEARCH is observed — count, error, and
// wall-clock latency measured from admission (so the recorded time
// includes lock wait, the true service latency under contention) — and
// each engine gets a gauge sampler that reads its live core state
// (load factor, probe count / AMAL, spilled records) under the read
// lock. Engines missing from the registry stay uninstrumented; requests
// naming no engine at all count against the registry's unknown counter.
//
// Instrument is part of construction: call it before the Concurrent is
// shared across goroutines.
func (c *Concurrent) Instrument(reg *metrics.Registry) *Concurrent {
	c.met = reg
	for name, g := range c.set.Load().m {
		em := reg.Engine(name)
		if em == nil {
			continue
		}
		em.SetType(g.e.Type.String())
		g.em = em
		em.SetGaugeFunc(func() metrics.Gauges { return c.sampleGauges(g) })
	}
	return c
}

// sampleGauges reads one engine's live state under its read lock.
// Placement (the spilled-record scan) is O(rows); gauges are sampled on
// scrape/METRICS, never on the op path.
func (c *Concurrent) sampleGauges(g *guardedEngine) metrics.Gauges {
	g.mu.RLock()
	defer g.mu.RUnlock()
	st := g.e.Main.Stats()
	est := g.e.Main.EccStats()
	return metrics.Gauges{
		Records:           g.e.Main.Count(),
		LoadFactor:        g.e.Main.LoadFactor(),
		AMAL:              st.AMAL(),
		Lookups:           st.Lookups,
		RowsAccessed:      st.RowsAccessed,
		Hits:              st.Hits,
		Misses:            st.Misses,
		Spilled:           g.e.Main.Placement().SpilledRecords,
		Health:            int(g.health.Load()),
		Quarantined:       g.e.Main.QuarantinedRows(),
		EccCorrected:      est.CorrectedBits,
		EccUncorrectable:  est.Uncorrectable,
		EccReadErrors:     est.ReadErrors,
		ScrubRepairedBits: est.ScrubRepairedBits,
		ReadRetries:       g.retries.Load(),
		LockFallbacks:     g.fallbacks.Load(),
	}
}

// evalHealth computes the engine's health from its current state (the
// caller holds the engine lock): one quarantined row degrades the
// engine, and a quarter of its rows quarantined fails it. Both inputs
// are O(1) counters, so this is cheap enough to run after every
// write-side operation.
func (g *guardedEngine) evalHealth() Health {
	q := g.e.Main.QuarantinedRows()
	switch {
	case q > 0 && 4*q >= g.e.Main.Array().Rows():
		return Failed
	case q > 0:
		return Degraded
	}
	return Healthy
}

// Health returns the engine's current availability state (a lock-free
// read of what the breaker sees).
func (c *Concurrent) Health(port string) (Health, error) {
	g, ok := c.engine(port)
	if !ok {
		return Healthy, errNoEngine(port)
	}
	return Health(g.health.Load()), nil
}

// HealthInfo is the HEALTH wire command's payload for one engine.
type HealthInfo struct {
	State       Health
	Quarantined int
	Ecc         caram.EccStats
}

// HealthInfo snapshots an engine's availability state and the fault
// counters behind it, under the read lock.
func (c *Concurrent) HealthInfo(port string) (HealthInfo, error) {
	g, ok := c.engine(port)
	if !ok {
		return HealthInfo{}, errNoEngine(port)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return HealthInfo{
		State:       Health(g.health.Load()),
		Quarantined: g.e.Main.QuarantinedRows(),
		Ecc:         g.e.Main.EccStats(),
	}, nil
}

// Scrub runs the engine's scrub pass under the write lock and then
// re-evaluates health from the repaired state. It is the episode
// boundary: the one transition allowed to LOWER health, because the
// array has just been restored from the authoritative shadow.
func (c *Concurrent) Scrub(port string) (caram.ScrubReport, error) {
	if c.down.Load() {
		return caram.ScrubReport{}, ErrClosed
	}
	g, ok := c.engine(port)
	if !ok {
		return caram.ScrubReport{}, errNoEngine(port)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	rep := g.e.Main.Scrub()
	g.health.Store(int32(g.evalHealth()))
	return rep, nil
}

// errNoEngine formats the canonical unknown-port error.
func errNoEngine(port string) error {
	return fmt.Errorf("subsystem: no engine %q", port)
}

// Engines lists engine names in registration order (a snapshot; a
// concurrent CreateEngine/DropEngine may change the roster after).
func (c *Concurrent) Engines() []string {
	return append([]string(nil), c.set.Load().order...)
}

// EngineType reports the named engine's workload type.
func (c *Concurrent) EngineType(port string) (EngineType, error) {
	g, ok := c.engine(port)
	if !ok {
		return ExactEngine, errNoEngine(port)
	}
	return g.e.Type, nil
}

// The executor. Figure 5 puts one input controller in front of the
// slices and Table 1 walks every request through one fixed pipeline;
// the operations below do the same. Each is one of three bodies — read
// (Search*, Explain), write (WriteRun, a run of writes to one engine;
// Insert and Delete are runs of one), batch (an engine's share of an
// MSearch) — and every body is the same stage list, skipping the stages
// its kind has no use for:
//
//	admit        down → roster → health, written once (admit). The
//	             inspectors that must keep answering after Close or on a
//	             Failed engine (Scrub, Info, HealthInfo, ...) take the
//	             roster step (engine) alone.
//	lock-free    reads run on a pooled seqlock Reader and touch no mutex
//	             (searchSeq, batchSeq).
//	lock         everything else takes the engine's port lock: writes,
//	             and the reads the seqlock could not certify.
//	touch        a write run's home rows, fetched a chunk ahead of its
//	             applies (Engine.Touch).
//	apply        the engine call, plus the health re-evaluation its
//	             outcome calls for.
//	journal      writes append their record under the lock, so per-
//	             engine LSN order is apply order.
//	commit-wait  the durability wait, after unlock (group commit), once
//	             per write run.
//	observe      one metrics observation per operation.
//
// The clock is read at admission — through stamp, when the engine is
// instrumented and the tier above has not already stamped the request
// (Clock) —, once where the operation is observed (where each member of
// a write run ends, which is where the next is admitted), in front of a
// watched write's journal append, and in front of each span a traced
// request records (lock_wait). Operation latency runs from admission; a
// span starts immediately before the stage it times. An operation nobody
// observes never reads the clock.

// admit is the executor's first stage, for n requests naming one port:
// after Close every op fails fast, an unknown port counts n against the
// registry's unknown counter, and a Failed engine trips the circuit
// breaker (ErrEngineUnavailable) before anything touches its port lock,
// so a broken engine cannot queue work.
func (c *Concurrent) admit(port string, n int) (*guardedEngine, error) {
	if c.down.Load() {
		return nil, ErrClosed
	}
	g, ok := c.engine(port)
	if !ok {
		c.met.AddUnknown(uint64(n))
		return nil, errNoEngine(port)
	}
	if Health(g.health.Load()) == Failed {
		return nil, ErrEngineUnavailable
	}
	return g, nil
}

// stamp reads the clock when on.
func stamp(on bool) time.Time {
	if on {
		return time.Now()
	}
	return time.Time{}
}

// Clock is one served request's time, shared between the tier that
// admitted the request and the executor so that the two read the clock
// once between them. The tier sets T0, its admission stamp, and the
// executor times the operation from it instead of stamping an admission
// of its own; what the executor then measures it leaves here: Dur, the
// latency it observed (zero when it observed nothing: an uninstrumented
// engine, a request that failed admission), and for a journaled write
// the wal_append window, as an offset from T0 and a length. A nil Clock
// is an operation nobody above is timing.
type Clock struct {
	T0            time.Time
	Dur           time.Duration
	WALAt, WALDur time.Duration
}

// begin returns the stamp an operation is timed from: the one handed
// down, else the executor's own when on.
func (ck *Clock) begin(on bool) time.Time {
	if ck != nil {
		return ck.T0
	}
	return stamp(on)
}

// observed leaves the latency the executor measured for the tier above.
func (ck *Clock) observed(d time.Duration) time.Duration {
	if ck != nil {
		ck.Dur = d
	}
	return d
}

// Insert routes a record to the named engine under its write lock: a
// run of one, timed only for the engine's metrics.
func (c *Concurrent) Insert(port string, rec match.Record) error {
	var out [1]Written
	c.WriteRun([]JournalEntry{{Op: JournalInsert, Engine: port, Rec: rec}}, out[:], false)
	return out[0].Err
}

// Delete removes the exact key from the named engine under its write
// lock, as a run of one like Insert.
func (c *Concurrent) Delete(port string, key bitutil.Ternary) error {
	var out [1]Written
	c.WriteRun([]JournalEntry{{Op: JournalDelete, Engine: port, Key: key}}, out[:], false)
	return out[0].Err
}

// Written is what the write body leaves behind for one member of a run:
// its outcome and, when the run is watched, its clock.
type Written struct {
	Err   error
	Clock Clock
}

// WriteRun applies a run of writes — INSERT and DELETE journal entries
// that all name ents[0].Engine, each the record its mutation is logged
// as — in order, under one hold of the engine lock, and leaves member
// i's outcome in out[i]. It is the one write body: Insert and Delete are
// runs of one. When watched, every member is timed: admitted when its
// predecessor finished, the first member at out[0].Clock.T0 (zero: now),
// and timed over its own window, so the members' windows tile the run;
// the run's one durability wait falls in its last member's window. Each
// outcome is what the member would have met as a write of its own at its
// place in the run. Which side of apply a record is appended on is the
// only thing the two kinds differ in.
//
// A delete is logged before it applies: a logged delete that then finds
// nothing replays as the same harmless no-op, so a failed delete needs
// no undo. An insert is logged after it applies, and only on success,
// because insert failure is not deterministic across replay — fault
// injection or quarantine can fail an insert that replay would accept.
// If the log then rejects the record the placement is undone: the server
// must never acknowledge a mutation the log refused, and an unlogged one
// must not survive in memory either (it would silently vanish on the
// next recovery).
//
// The run is admitted once and takes the engine lock once. Under it the
// run goes a chunk (caram.BatchChunk writes) at a time: the touch stage
// (Engine.Touch) fetches the chunk's home rows back to back, then its
// writes apply in order, health re-checked before each — once the
// engine has Failed, the rest of the run is refused as its own
// admission would have been. Every append happens under the lock — so
// per-engine LSN order is apply order, the invariant the replay gate
// relies on — and the durability wait (Commit, on the run's last LSN)
// after unlock, so one connection's fsync never blocks the engine's
// other writers (group commit). A member's ack is ordered after the
// wait: a nil Err means the mutation is durable under the journal's
// sync policy. The wal_append window covers append (+ the wait, for the
// last member); it is stamped for every write somebody watches, because
// the writes that outlast a slowlog threshold are the ones that waited
// for an fsync, and a write's trace, built as it runs or after the fact,
// takes its wal_append span from the clock.
func (c *Concurrent) WriteRun(ents []JournalEntry, out []Written, watched bool) {
	g, err := c.admit(ents[0].Engine, len(ents))
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return
	}
	timed := watched || g.em != nil
	t := out[0].Clock.T0
	if timed && t.IsZero() {
		t = time.Now()
	}
	var lsn, at uint64 // the run's last LSN, and the last member's
	var walStart time.Time
	n := len(ents) // the members applied; the rest were refused
	g.mu.Lock()
	for i := range ents {
		if i > 0 && Health(g.health.Load()) == Failed {
			for j := i; j < len(ents); j++ {
				out[j].Err = ErrEngineUnavailable
			}
			n = i
			break
		}
		if i%caram.BatchChunk == 0 && len(ents) > 1 {
			g.e.Touch(ents[i:min(i+caram.BatchChunk, len(ents))])
		}
		o := &out[i]
		o.Clock.T0 = t
		if at, walStart, o.Err = c.apply(g, &ents[i], watched); at != 0 {
			lsn = at
		}
		if timed && i < len(ents)-1 {
			end := time.Now()
			o.Clock.Dur = end.Sub(t)
			if at != 0 && watched {
				o.Clock.WALAt, o.Clock.WALDur = walStart.Sub(t), end.Sub(walStart)
			}
			t = end
		}
	}
	g.mu.Unlock()
	if lsn != 0 {
		if cerr := c.jr.Commit(lsn); cerr != nil {
			for i := range out[:n] {
				if out[i].Err == nil {
					out[i].Err = cerr
				}
			}
		}
	}
	if !timed {
		return
	}
	last := &out[n-1].Clock
	end := time.Now()
	last.Dur = end.Sub(last.T0)
	if at != 0 && watched {
		last.WALAt, last.WALDur = walStart.Sub(last.T0), end.Sub(walStart)
	}
	if g.em != nil {
		for i := range out[:n] {
			op := metrics.OpInsert
			if ents[i].Op == JournalDelete {
				op = metrics.OpDelete
			}
			g.em.Observe(op, out[i].Clock.Dur, out[i].Err)
		}
	}
}

// apply is the write body's per-write stage, under the engine lock: the
// mutation, its journal record on the side of it the kind calls for, and
// the health re-evaluation an insert's outcome calls for. lsn is zero
// when nothing was journaled.
func (c *Concurrent) apply(g *guardedEngine, ent *JournalEntry, watched bool) (lsn uint64, walStart time.Time, err error) {
	if ent.Op == JournalDelete {
		if lsn, walStart, err = c.journal(g, ent, watched); err == nil {
			err = g.e.Delete(ent.Key)
		}
		return lsn, walStart, err
	}
	if err = g.e.Insert(ent.Rec, g.st); err == nil {
		if lsn, walStart, err = c.journal(g, ent, watched); err != nil {
			g.e.Delete(ent.Rec.Key) //nolint:errcheck // best-effort undo of a just-applied placement
		}
	}
	g.raiseTo(g.evalHealth())
	return lsn, walStart, err
}

// journal is the write body's journal stage: it appends ent (the caller
// holds the engine lock), advances the engine's replay gate, and
// returns the LSN to wait on plus, for a watched write, when the
// wal_append window opened. Without a journal it does nothing and the
// LSN is zero.
func (c *Concurrent) journal(g *guardedEngine, ent *JournalEntry, watched bool) (lsn uint64, start time.Time, err error) {
	if c.jr == nil {
		return 0, start, nil
	}
	start = stamp(watched)
	if lsn, err = c.jr.Append(*ent); err == nil {
		g.e.AppliedLSN = lsn
	}
	return lsn, start, err
}

// Search runs one lookup on the named engine. It is wait-free: the
// lookup runs on a pooled lock-free Reader over the array's per-row
// seqlock, touching no mutex — concurrent searches overlap with each
// other and with the engine's writer, the software form of §3.3's
// replicated comparator banks. Only the rare search the seqlock
// protocol cannot certify serializes under the engine lock.
func (c *Concurrent) Search(port string, key bitutil.Ternary) (SearchResult, error) {
	return c.SearchServed(port, key, nil, nil)
}

// SearchServed is the one read body, timed on the clock the request
// shares with the tier above and recording into its request-scoped
// trace: the engine layer records the probe chain, plus a retries event
// when the lock-free read re-read torn snapshots. Only the fallback
// path records a lock_wait span — a lock-free search never waits on the
// port lock, which is the point — and the span starts after the
// abandoned attempt, while the observed latency still runs from
// admission. A nil clock and trace is the plain hot path
// (Search delegates here), and with metrics also absent the clock is
// never read.
func (c *Concurrent) SearchServed(port string, key bitutil.Ternary, ck *Clock, tr *trace.Trace) (SearchResult, error) {
	g, err := c.admit(port, 1)
	if err != nil {
		return SearchResult{}, err
	}
	t0 := ck.begin(g.em != nil)
	sr, ok := g.searchSeq(key, tr)
	if !ok {
		lockStart := stamp(tr != nil)
		g.mu.Lock()
		tr.Span(trace.KindLockWait, lockStart)
		sr = g.e.SearchTraced(key, tr)
		if sr.Erred {
			g.raiseTo(g.evalHealth())
		}
		g.mu.Unlock()
	}
	if g.em != nil {
		g.em.Observe(metrics.OpSearch, ck.observed(time.Since(t0)), nil)
	}
	return sr, nil
}

// searchSeq is the read body's lock-free stage: one search on a pooled
// Reader, its torn-snapshot count folded into the engine's retry
// telemetry and the request trace. ok=false means the Reader could not
// certify an answer and the caller escalates to the serialized path.
func (g *guardedEngine) searchSeq(key bitutil.Ternary, tr *trace.Trace) (SearchResult, bool) {
	mark := 0
	if tr.Enabled() {
		mark = len(tr.Events)
	}
	rd := g.readers.get()
	sr, ok := g.e.SearchSeq(rd, key, tr)
	n := g.release(rd)
	if !ok {
		g.fallbacks.Add(1)
		if tr.Enabled() {
			// Drop the abandoned attempt's partial probe chain; the
			// serialized re-run records the authoritative one.
			tr.Events = tr.Events[:mark]
		}
	}
	tr.Retries(n)
	return sr, ok
}

// Explain is the same read with tracing forced on (tr must be non-nil),
// followed by the engine's §3.4 analytic expectation of rows accessed —
// mean(1 + displacement) over the copies stored when the lookup
// returned, read as ExpectedRows reads it. The lookup is real: it
// charges access statistics and counts as a search in the metrics
// layer, exactly like the request it explains.
func (c *Concurrent) Explain(port string, key bitutil.Ternary, tr *trace.Trace) (SearchResult, float64, error) {
	sr, err := c.SearchServed(port, key, nil, tr)
	if err != nil {
		return SearchResult{}, 0, err
	}
	expected, _ := c.ExpectedRows(port)
	return sr, expected, nil
}

// Retrace records into tr the lookup summary and probe chain of a
// search that already ran untraced, from its result alone. Probing is
// linear (§3.1): a lookup that read n rows read buckets home … home+n−1,
// and on a first-match engine a record found in the main array sat in
// the last of them. What the result does not say is left out, not
// guessed: per-row slot and match counts, the recorded reach beyond the
// rows walked, which rows of a ranked scan matched, and the whole chain
// of an erred lookup (RowsRead does not
// count the rows it skipped). Nothing is fetched, so nothing is charged.
func (c *Concurrent) Retrace(port string, sr SearchResult, tr *trace.Trace) {
	tr.Lookup(sr.Home, max(sr.RowsRead-1, 0), sr.RowsRead, sr.Found)
	g, ok := c.engine(port)
	if !ok || sr.Erred {
		return
	}
	rows := g.e.Main.Array().Rows()
	last := g.e.Score == nil && sr.Found
	for d := 0; d < sr.RowsRead; d++ {
		tr.Probe(uint32((int(sr.Home)+d)%rows), d, 0, 0, last && d == sr.RowsRead-1)
	}
}

// ExpectedRows returns the engine's current §3.4 analytic expectation
// of rows accessed per lookup — the value EXPLAIN prints — taken under
// the read lock (the writer updates the placement bookkeeping it reads
// with plain stores) without running a search. TRACE GET uses it to
// annotate a retained trace with the model value at fetch time.
func (c *Concurrent) ExpectedRows(port string) (float64, bool) {
	if c.down.Load() {
		return 0, false
	}
	g, ok := c.engine(port)
	if !ok {
		return 0, false
	}
	g.mu.RLock()
	expected := g.e.Main.ExpectedRows()
	g.mu.RUnlock()
	return expected, true
}

// EngineInfo is a consistent snapshot of one engine's occupancy and
// activity counters.
type EngineInfo struct {
	Count      int
	LoadFactor float64
	Stats      caram.Stats
	Placement  EngineStats
}

// Info snapshots an engine's counters under the read lock.
func (c *Concurrent) Info(port string) (EngineInfo, error) {
	g, ok := c.engine(port)
	if !ok {
		return EngineInfo{}, errNoEngine(port)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return EngineInfo{
		Count:      g.e.Main.Count(),
		LoadFactor: g.e.Main.LoadFactor(),
		Stats:      g.e.Main.Stats(),
		Placement:  *g.st,
	}, nil
}

// PortKey names one element of a batched search: a key aimed at an
// engine port.
type PortKey struct {
	Port string
	Key  bitutil.Ternary
}

// MSearchResult is one slot of a batched search's answer.
type MSearchResult struct {
	Err    error
	Result SearchResult
}

// mjob is the per-engine grouping MSearch builds before dispatch: the
// engine and its share of the request indices (n of them once counted).
type mjob struct {
	g    *guardedEngine
	idxs []int
	n    int
}

// MSearch fans a batch of searches across engines. Requests are
// grouped by engine, and the caller runs the groups itself, one after
// another in the order their engines first appear: each group runs as
// one unit, which takes the engine lock at most once and — when
// instrumented — charges the group with a single clock pair
// (metrics.ObserveBatch) instead of per-key timestamps. Lookups on
// distinct engines overlap across callers (each connection is one),
// not within a batch. Results come back in request order; an unknown
// port yields a per-slot error rather than failing the batch.
//
// The bookkeeping lives in a borrowed MSearchScratch: its slab's first
// half records each request's group and its second half is carved into
// the groups' index lists. A batch allocates its answer, a copy of the
// scratch's slots, and nothing else once the scratch has grown to it. A
// run of requests naming the same port resolves its engine once.
func (c *Concurrent) MSearch(reqs []PortKey) []MSearchResult {
	sc := c.spare.Swap(nil)
	if sc == nil {
		sc = new(MSearchScratch)
	}
	out := slices.Clone(c.MSearchServed(reqs, nil, sc))
	c.spare.Store(sc)
	return out
}

// MSearchScratch is one MSearch's bookkeeping — the result slots, the
// grouping slab, and an engine group's keys and answers as the Reader's
// batch pipeline takes them — kept by a caller that serves many, so
// that a served batch allocates nothing (the server pools one with each
// parsed key list). The zero value is ready.
type MSearchScratch struct {
	out  []MSearchResult
	slab []int
	keys []bitutil.Ternary
	res  []caram.LookupResult
	ok   []bool
}

// take sizes the scratch for n requests and returns it, the slots zeroed.
func (sc *MSearchScratch) take(n int) (out []MSearchResult, slab []int) {
	if cap(sc.out) < n {
		sc.out, sc.slab = make([]MSearchResult, n), make([]int, 2*n)
		sc.keys, sc.res, sc.ok = make([]bitutil.Ternary, n), make([]caram.LookupResult, n), make([]bool, n)
	}
	out = sc.out[:n]
	clear(out)
	return out, sc.slab[:2*n]
}

// MSearchServed is MSearch for a served request. The clock goes to the
// first group; when other groups ran after it, that group's latency is
// not the batch's and is withdrawn. The slots returned are sc's: they
// are good until sc is used again.
func (c *Concurrent) MSearchServed(reqs []PortKey, ck *Clock, sc *MSearchScratch) []MSearchResult {
	out, slab := sc.take(len(reqs))
	if len(reqs) == 0 {
		return out
	}
	jobs := make([]mjob, 0, 4)
	jobOf, lists := slab[:len(reqs)], slab[len(reqs):]
	j := -1 // the previous request's group, -1 when it had none
	for i, r := range reqs {
		if j < 0 || r.Port != reqs[i-1].Port {
			j = -1
			if g, err := c.admit(r.Port, 1); err != nil {
				out[i].Err = err
			} else if j = slices.IndexFunc(jobs, func(m mjob) bool { return m.g == g }); j < 0 {
				// (Engine counts are small; a linear scan beats a map.)
				j = len(jobs)
				jobs = append(jobs, mjob{g: g})
			}
		}
		if jobOf[i] = j; j >= 0 {
			jobs[j].n++
		}
	}
	off := 0
	for k := range jobs {
		jobs[k].idxs = lists[off : off : off+jobs[k].n]
		off += jobs[k].n
	}
	for i, k := range jobOf {
		if k >= 0 {
			jobs[k].idxs = append(jobs[k].idxs, i)
		}
	}
	if len(jobs) == 0 {
		return out
	}
	c.runBatch(jobs[0].g, reqs, out, jobs[0].idxs, ck, sc)
	for _, j := range jobs[1:] {
		c.runBatch(j.g, reqs, out, j.idxs, nil, sc)
	}
	if ck != nil && len(jobs) > 1 {
		ck.Dur = 0
	}
	return out
}

// runBatch is the one batch body: an engine's share of an MSearch. The
// lock-free stage (batchSeq) runs the whole share on one pooled Reader;
// the lock stage then takes the engine lock once for the keys the
// seqlock protocol could not certify, if any. One clock pair spans
// both, and each key is attributed its per-item slice of the duration.
func (c *Concurrent) runBatch(g *guardedEngine, reqs []PortKey, out []MSearchResult, idxs []int, ck *Clock, sc *MSearchScratch) {
	t0 := ck.begin(g.em != nil)
	if rest := g.batchSeq(reqs, out, idxs, sc); len(rest) > 0 {
		erred := false
		g.mu.Lock()
		for _, i := range rest {
			out[i].Result = g.e.Search(reqs[i].Key)
			erred = erred || out[i].Result.Erred
		}
		if erred {
			g.raiseTo(g.evalHealth())
		}
		g.mu.Unlock()
	}
	if g.em != nil {
		g.em.ObserveBatch(metrics.OpMSearch, ck.observed(time.Since(t0)), uint64(len(idxs)), 0)
	}
}

// batchSeq is the batch body's lock-free stage, with no mutex
// operations: first-match engines hand their whole group to the
// Reader's staged batch pipeline (caram.Reader.LookupBatch) in one call,
// its keys and answers in sc; ranked engines go key by key on
// LookupBest, whose full-reach scan has no home-row fast case to batch.
// It returns the keys it could not certify, counted as fallbacks.
func (g *guardedEngine) batchSeq(reqs []PortKey, out []MSearchResult, idxs []int, sc *MSearchScratch) (rest []int) {
	rd := g.readers.get()
	if g.e.Score != nil {
		for _, i := range idxs {
			sr, ok := g.e.SearchSeq(rd, reqs[i].Key, nil)
			if !ok {
				rest = append(rest, i)
				continue
			}
			out[i].Result = sr
		}
	} else {
		keys, res, ok := sc.keys[:len(idxs)], sc.res[:len(idxs)], sc.ok[:len(idxs)]
		for k, i := range idxs {
			keys[k] = reqs[i].Key
		}
		rd.LookupBatch(keys, res, ok)
		for k, i := range idxs {
			if !ok[k] {
				rest = append(rest, i)
				continue
			}
			fromLookup(&out[i].Result, &res[k])
		}
	}
	g.release(rd)
	if len(rest) > 0 {
		g.fallbacks.Add(uint64(len(rest)))
	}
	return rest
}
