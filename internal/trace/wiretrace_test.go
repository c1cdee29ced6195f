package trace

import (
	"strings"
	"testing"
	"time"
)

// The wire-id half of the collector: tagged-ring admission and the
// Find lookup behind TRACE GET.

// TestTaggedAdmissionPriority pins the ring precedence for a trace
// carrying a wire id: slowlog > tagged > sampled, landing in exactly
// one ring.
func TestTaggedAdmissionPriority(t *testing.T) {
	// Slow AND tagged AND sampled: the slowlog wins.
	c := NewCollector(Config{SampleN: 1, Slowlog: 0, Ring: 4})
	tr := begin(c)
	tr.SetWire(0xbeef, 1)
	if !c.Observe(tr, time.Millisecond) {
		t.Fatal("above-threshold trace not slow")
	}
	if c.Slow().Len() != 1 || c.Tagged().Len() != 0 || c.Sampled().Len() != 0 {
		t.Fatalf("slow/tagged/sampled = %d/%d/%d, want 1/0/0",
			c.Slow().Len(), c.Tagged().Len(), c.Sampled().Len())
	}

	// Tagged AND sampled, slowlog off: the tagged ring wins.
	c = NewCollector(Config{SampleN: 1, Slowlog: -1, Ring: 4})
	tr = begin(c)
	tr.SetWire(0xbeef, 1)
	c.Observe(tr, time.Millisecond)
	if c.Tagged().Len() != 1 || c.Sampled().Len() != 0 {
		t.Fatalf("tagged/sampled = %d/%d, want 1/0",
			c.Tagged().Len(), c.Sampled().Len())
	}

	// No policies, no tag: recycled, retained nowhere.
	c = NewCollector(Config{Slowlog: -1, Ring: 4})
	c.Observe(begin(c), time.Millisecond)
	if c.Slow().Len()+c.Tagged().Len()+c.Sampled().Len() != 0 {
		t.Fatal("untagged ineligible trace was retained")
	}
}

// TestAdmissionSeam pins the two halves of trace-on-admission: Sample
// is the head decision (the 1-in-N counter, no trace involved), BeginAt
// materialises a trace either way, and an unsampled one is kept exactly
// when its latency is strictly above the slowlog threshold.
func TestAdmissionSeam(t *testing.T) {
	const thr = 10 * time.Millisecond
	c := NewCollector(Config{SampleN: 3, Slowlog: thr, Ring: 8})
	for i := 1; i <= 9; i++ {
		if got, want := c.Sample(), i%3 == 0; got != want {
			t.Errorf("Sample #%d = %v, want %v", i, got, want)
		}
	}
	if c.Seen() != 9 {
		t.Errorf("Seen = %d after 9 Sample calls", c.Seen())
	}

	// The boundary is strictly greater, and the same predicate decides
	// before a trace exists (SlowAdmit) and after (Observe).
	t0 := time.Now()
	for _, tc := range []struct {
		d    time.Duration
		slow bool
	}{{thr - 1, false}, {thr, false}, {thr + 1, true}} {
		if got := c.SlowAdmit(tc.d); got != tc.slow {
			t.Errorf("SlowAdmit(%v) = %v, want %v", tc.d, got, tc.slow)
		}
		tr := c.BeginAt(t0, false)
		if !tr.Begin.Equal(t0) {
			t.Fatalf("BeginAt lost the start time: %v", tr.Begin)
		}
		if got := c.Observe(tr, tc.d); got != tc.slow {
			t.Errorf("Observe(late-built, %v) slow = %v, want %v", tc.d, got, tc.slow)
		}
	}
	if c.Slow().Len() != 1 || c.Sampled().Len() != 0 || c.Tagged().Len() != 0 {
		t.Fatalf("late-built traces: slow/sampled/tagged = %d/%d/%d, want 1/0/0",
			c.Slow().Len(), c.Sampled().Len(), c.Tagged().Len())
	}

	// Sampled wins at dispatch: a head-sampled trace is kept however
	// fast the request turned out — tagged ring once it carries a wire
	// id, sampled ring otherwise.
	c.Observe(c.BeginAt(t0, true), time.Microsecond)
	tagged := c.BeginAt(t0, true)
	tagged.SetWire(0xbeef, 0)
	c.Observe(tagged, time.Microsecond)
	if c.Sampled().Len() != 1 || c.Tagged().Len() != 1 || c.Slow().Len() != 1 {
		t.Errorf("sampled traces: slow/sampled/tagged = %d/%d/%d, want 1/1/1",
			c.Slow().Len(), c.Sampled().Len(), c.Tagged().Len())
	}

	var nc *Collector
	if nc.Sample() || nc.SlowAdmit(time.Hour) {
		t.Error("nil collector admitted something")
	}
}

// TestFindAcrossRings: Find scans all three retention rings and
// honours the span-0-matches-any convention.
func TestFindAcrossRings(t *testing.T) {
	c := NewCollector(Config{SampleN: 1, Slowlog: 10 * time.Millisecond, Ring: 8})

	admit := func(tid uint64, span uint32, d time.Duration) {
		tr := begin(c)
		tr.Request("SEARCH", "db", "k")
		tr.SetWire(tid, span)
		c.Observe(tr, d)
	}
	admit(0xa1, 1, time.Hour)        // slowlog
	admit(0xa2, 2, time.Microsecond) // fast but tagged: tagged ring

	if got := c.Find(0xa1, 1); got == nil || got.SpanID != 1 {
		t.Errorf("Find in slowlog ring: %+v", got)
	}
	if got := c.Find(0xa2, 0); got == nil || got.TID != 0xa2 {
		t.Errorf("Find span 0 across rings: %+v", got)
	}
	if c.Find(0xa2, 9) != nil {
		t.Error("Find matched the wrong span")
	}
	if c.Find(0xffff, 0) != nil {
		t.Error("Find matched an unknown id")
	}
	if c.Find(0, 0) != nil {
		t.Error("Find(0, 0) must always miss: tid 0 means untagged")
	}

	// Wraparound eviction: newer tagged ids push 0xa2 out.
	for i := 0; i < c.Tagged().Cap()+c.Sampled().Cap(); i++ {
		admit(0xb000+uint64(i), 1, time.Microsecond)
	}
	if c.Find(0xa2, 2) != nil {
		t.Error("evicted id still found")
	}
	// The slowlog entry is untouched by tagged-ring churn.
	if c.Find(0xa1, 1) == nil {
		t.Error("slowlog entry lost to tagged-ring wraparound")
	}
}

// TestFindVsResetRace races Find against Reset on every ring; the race
// detector (make trace-guard) is the assertion.
func TestFindVsResetRace(t *testing.T) {
	c := NewCollector(Config{SampleN: 2, Slowlog: 0, Ring: 8})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Slow().Reset()
			c.Tagged().Reset()
			c.Sampled().Reset()
		}
	}()
	for i := 0; i < 1000; i++ {
		tr := begin(c)
		tr.Request("SEARCH", "db", "k")
		tr.SetWire(uint64(i)+1, 1)
		c.Observe(tr, time.Microsecond)
		if got := c.Find(uint64(i)+1, 1); got != nil && got.TID != uint64(i)+1 {
			t.Fatalf("Find returned a foreign trace: %+v", got)
		}
	}
	<-done
}

func TestNewTraceIDNonZero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID minted 0 (the untagged sentinel)")
		}
		if seen[id] {
			t.Fatalf("NewTraceID repeated %x within 1000 draws", id)
		}
		seen[id] = true
	}
}

// TestAppendJSONUntimedEvents: an ecc event renders its row, the bits it
// corrected and its quarantine, and a retries event its count, so that a
// correction and a quarantine on neighbouring rows read apart.
func TestAppendJSONUntimedEvents(t *testing.T) {
	tr := New()
	tr.Ecc(42, 1, false)
	tr.Ecc(43, 0, true)
	tr.Retries(3)
	got := string(tr.AppendJSON(nil, 0))
	want := `"spans":[` +
		`{"kind":"ecc","offset_ns":0,"dur_ns":0,"bucket":42,"corrected_bits":1},` +
		`{"kind":"ecc","offset_ns":0,"dur_ns":0,"bucket":43,"quarantined":true},` +
		`{"kind":"retries","offset_ns":0,"dur_ns":0,"n":3}]`
	if !strings.Contains(got, want) {
		t.Fatalf("AppendJSON = %s\nwant it to hold %s", got, want)
	}
}
