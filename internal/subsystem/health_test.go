package subsystem

import (
	"errors"
	"testing"

	"caram/internal/bitutil"
	"caram/internal/caram"
	"caram/internal/hash"
	"caram/internal/trace"
)

// eccSlice is testSlice with per-row error coding enabled.
func eccSlice(t *testing.T, indexBits int) *caram.Slice {
	t.Helper()
	return caram.MustNew(caram.Config{
		IndexBits: indexBits,
		RowBits:   4*(1+32+16) + 8,
		KeyBits:   32,
		DataBits:  16,
		Index:     hash.NewMultShift(indexBits),
		ECC:       true,
	})
}

// corruptRow flips two stored bits of a row directly — an injected
// uncorrectable soft error.
func corruptRow(sl *caram.Slice, idx uint32, a, b int) {
	row := sl.Array().PeekRow(idx)
	row[a>>6] ^= 1 << uint(a&63)
	row[b>>6] ^= 1 << uint(b&63)
}

func TestHealthDegradesOnQuarantineAndScrubRecovers(t *testing.T) {
	sub := New(0)
	sl := eccSlice(t, 8)
	if err := sub.AddEngine(&Engine{Name: "db", Main: sl}); err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(sub)
	defer c.Close()
	for i := 0; i < 50; i++ {
		if err := c.Insert("db", rec(uint64(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := c.Health("db"); err != nil || h != Healthy {
		t.Fatalf("initial health = %v, %v", h, err)
	}
	home := sl.Index(bitutil.FromUint64(7))
	corruptRow(sl, home, 3, 97)
	sr, err := c.Search("db", exact(7))
	if err != nil || sr.Found || !sr.Erred {
		t.Fatalf("search over corrupt row = %+v, %v", sr, err)
	}
	if h, _ := c.Health("db"); h != Degraded {
		t.Fatalf("health after quarantine = %v, want degraded", h)
	}
	hi, err := c.HealthInfo("db")
	if err != nil || hi.State != Degraded || hi.Quarantined != 1 || hi.Ecc.Uncorrectable != 1 {
		t.Fatalf("HealthInfo = %+v, %v", hi, err)
	}
	// Degraded still serves: other keys answer normally.
	if sr, err := c.Search("db", exact(8)); err != nil || !sr.Found {
		t.Fatalf("degraded engine refused service: %+v, %v", sr, err)
	}
	rep, err := c.Scrub("db")
	if err != nil || rep.Released != 1 {
		t.Fatalf("scrub = %+v, %v", rep, err)
	}
	if h, _ := c.Health("db"); h != Healthy {
		t.Fatalf("health after scrub = %v, want healthy", h)
	}
	if sr, err := c.Search("db", exact(7)); err != nil || !sr.Found || sr.Erred {
		t.Fatalf("record not restored by scrub: %+v, %v", sr, err)
	}
}

func TestHealthFailedTripsCircuitBreaker(t *testing.T) {
	sub := New(0)
	// Four rows: one quarantined row is the quarter that fails the engine.
	sl := eccSlice(t, 2)
	if err := sub.AddEngine(&Engine{Name: "db", Main: sl}); err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(sub)
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Insert("db", rec(uint64(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	corruptRow(sl, sl.Index(bitutil.FromUint64(7)), 3, 97)
	if sr, err := c.Search("db", exact(7)); err != nil || !sr.Erred {
		t.Fatalf("detection search = %+v, %v", sr, err)
	}
	if h, _ := c.Health("db"); h != Failed {
		t.Fatalf("health = %v, want failed", h)
	}
	// Every op now fails fast, before the engine lock.
	if err := c.Insert("db", rec(99, 99)); !errors.Is(err, ErrEngineUnavailable) {
		t.Errorf("Insert on failed engine: %v", err)
	}
	if _, err := c.Search("db", exact(8)); !errors.Is(err, ErrEngineUnavailable) {
		t.Errorf("Search on failed engine: %v", err)
	}
	if err := c.Delete("db", exact(8)); !errors.Is(err, ErrEngineUnavailable) {
		t.Errorf("Delete on failed engine: %v", err)
	}
	if _, _, err := c.Explain("db", exact(8), trace.New()); !errors.Is(err, ErrEngineUnavailable) {
		t.Errorf("Explain on failed engine: %v", err)
	}
	out := c.MSearch([]PortKey{{Port: "db", Key: exact(8)}})
	if !errors.Is(out[0].Err, ErrEngineUnavailable) {
		t.Errorf("MSearch slot on failed engine: %v", out[0].Err)
	}
	// Scrub is the recovery action: it bypasses the breaker by design.
	if _, err := c.Scrub("db"); err != nil {
		t.Fatalf("scrub of failed engine: %v", err)
	}
	if h, _ := c.Health("db"); h != Healthy {
		t.Fatalf("health after scrub = %v", h)
	}
	if sr, err := c.Search("db", exact(8)); err != nil || !sr.Found {
		t.Fatalf("recovered engine: %+v, %v", sr, err)
	}
}
