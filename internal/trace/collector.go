package trace

import (
	"flag"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Collector. The zero value samples nothing
// but retains every request with nonzero latency in the slowlog
// (Slowlog 0, see SlowAdmit); an idle collector — both policies off,
// traces still recorded and pooled, so EXPLAIN-style forced traces and
// TRACE GET keep working — is Config{Slowlog: -1}.
type Config struct {
	// SampleN admits every Nth request into the sampled ring
	// (1-in-N). 0 or negative disables sampling. The sampler is
	// counter-based, not random, so admission is deterministic for a
	// scripted session.
	SampleN int
	// Slowlog is the slowlog latency threshold: a request is admitted
	// exactly when its wall latency exceeds it (strictly greater, the
	// Redis convention). A negative threshold disables the slowlog; 0
	// admits everything with nonzero latency.
	Slowlog time.Duration
	// Ring is the capacity of each retention ring (sampled and
	// slowlog). 0 means DefaultRing.
	Ring int
}

// DefaultRing is the per-policy retention when Config.Ring is 0.
const DefaultRing = 128

// Flags registers the tracing flags both serving binaries take on fs
// and returns what yields their Config once fs is parsed. What sampling
// and the slowlog retain differs by tier, so each binary words those
// help texts. A negative -slowlog-us is a negative threshold: off.
func Flags(fs *flag.FlagSet, sampleHelp, slowlogHelp string) func() Config {
	sample := fs.Int("trace-sample", 0, sampleHelp)
	slowUs := fs.Int64("slowlog-us", 10_000, slowlogHelp)
	ring := fs.Int("trace-ring", DefaultRing, "retained traces per ring (slowlog and sampled)")
	return func() Config {
		return Config{SampleN: *sample, Slowlog: time.Duration(*slowUs) * time.Microsecond, Ring: *ring}
	}
}

// Collector owns trace retention for a server: a pool of reusable
// traces, the two admission policies, and their rings. All methods are
// safe for concurrent use, and all but BeginAt on a nil receiver (a nil
// Collector is "tracing off": Sample picks nothing, Observe retains
// nothing, and every recording call on the nil Trace a tier holds then
// no-ops).
type Collector struct {
	sampleN int64
	slowNs  int64

	seen    atomic.Uint64 // requests begun (drives the 1-in-N sampler)
	sampled *Ring
	slow    *Ring
	tagged  *Ring // wire-propagated traces (*TID) a parent tier may fetch
	pool    sync.Pool
}

// NewCollector builds a collector with the given policies.
func NewCollector(cfg Config) *Collector {
	size := cfg.Ring
	if size <= 0 {
		size = DefaultRing
	}
	slowNs := int64(cfg.Slowlog)
	if cfg.Slowlog < 0 {
		slowNs = -1
	}
	sampleN := int64(cfg.SampleN)
	if sampleN < 0 {
		sampleN = 0
	}
	return &Collector{
		sampleN: sampleN,
		slowNs:  slowNs,
		sampled: NewRing(size),
		slow:    NewRing(size),
		tagged:  NewRing(size),
		pool: sync.Pool{New: func() any {
			return &Trace{Events: make([]Event, 0, 16)}
		}},
	}
}

// Enabled reports whether the collector is live.
func (c *Collector) Enabled() bool { return c != nil }

// SampleN returns the 1-in-N sampling rate (0 = off).
func (c *Collector) SampleN() int {
	if c == nil {
		return 0
	}
	return int(c.sampleN)
}

// SlowThreshold returns the slowlog threshold, or ok=false when the
// slowlog is disabled.
func (c *Collector) SlowThreshold() (time.Duration, bool) {
	if c == nil || c.slowNs < 0 {
		return 0, false
	}
	return time.Duration(c.slowNs), true
}

// Seen returns how many requests have begun tracing.
func (c *Collector) Seen() uint64 {
	if c == nil {
		return 0
	}
	return c.seen.Load()
}

// Sampled returns the sampled-trace ring (nil on a nil collector).
func (c *Collector) Sampled() *Ring {
	if c == nil {
		return nil
	}
	return c.sampled
}

// Slow returns the slowlog ring (nil on a nil collector).
func (c *Collector) Slow() *Ring {
	if c == nil {
		return nil
	}
	return c.slow
}

// Tagged returns the wire-propagated trace ring (nil on a nil
// collector): traces that carried a *TID annotation but were neither
// slow nor sampled, retained so the tagging tier can stitch them.
func (c *Collector) Tagged() *Ring {
	if c == nil {
		return nil
	}
	return c.tagged
}

// SlowAdmit is the slowlog admission predicate: latency strictly
// greater than the threshold, never on a disabled slowlog. Exposed so
// the admission property ("admitted exactly when d > threshold") is
// directly testable.
func (c *Collector) SlowAdmit(d time.Duration) bool {
	return c != nil && c.slowNs >= 0 && int64(d) > c.slowNs
}

// Sample counts one request and reports whether the 1-in-N sampler
// picks it. With BeginAt it is the seam for a tier that traces on
// admission: the head decision costs an atomic add and no trace, which
// is materialised only when Sample said yes, or after the fact once
// SlowAdmit has seen the request's latency.
func (c *Collector) Sample() bool {
	if c == nil {
		return false
	}
	n := c.seen.Add(1)
	return c.sampleN > 0 && n%uint64(c.sampleN) == 0
}

// BeginAt materialises a pooled trace for a request that began at t0
// and was or was not picked by Sample. c must be non-nil.
func (c *Collector) BeginAt(t0 time.Time, sampled bool) *Trace {
	t := c.pool.Get().(*Trace)
	t.Begin = t0
	t.sampled = sampled
	return t
}

// Observe finishes a request trace begun with BeginAt, given the
// request's latency: it applies both admission policies and either
// retains the trace (slowlog wins over the tagged ring, which wins over
// the sampled one) or recycles it. It returns whether the request
// entered the slowlog, so the tier can log it. Safe on a nil
// collector or trace.
func (c *Collector) Observe(t *Trace, d time.Duration) (slow bool) {
	if c == nil || t == nil {
		return false
	}
	t.Dur = d
	// A trace lands in exactly one ring (Ring.Put rewrites Trace.ID, so
	// double admission would corrupt the older ring's slot validation).
	// Priority: slowlog > tagged > sampled.
	switch {
	case c.SlowAdmit(d):
		t.detach()
		c.slow.Put(t)
		return true
	case t.TID != 0:
		t.detach()
		c.tagged.Put(t)
		return false
	case t.sampled:
		t.detach()
		c.sampled.Put(t)
		return false
	default:
		t.reset()
		c.pool.Put(t)
		return false
	}
}

// Find returns the newest retained trace carrying the wire trace id
// tid (and, when span is nonzero, exactly that span id), scanning the
// slowlog, tagged, and sampled rings. It is the lookup behind the
// TRACE GET wire command; a miss — never admitted, or already evicted
// by ring wraparound — returns nil.
func (c *Collector) Find(tid uint64, span uint32) *Trace {
	if c == nil || tid == 0 {
		return nil
	}
	var buf []*Trace
	for _, r := range []*Ring{c.slow, c.tagged, c.sampled} {
		buf = r.Snapshot(buf[:0], r.Cap())
		for _, t := range buf { // Snapshot is newest first
			if t.TID == tid && (span == 0 || t.SpanID == span) {
				return t
			}
		}
	}
	return nil
}
