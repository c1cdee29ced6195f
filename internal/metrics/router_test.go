package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRouterBackendCounters(t *testing.T) {
	rm := NewRouterMetrics([]string{"b0", "b1"})
	b := rm.Backend(0)
	if b.Name() != "b0" || rm.Backend(1).Name() != "b1" {
		t.Fatalf("names: %q %q", b.Name(), rm.Backend(1).Name())
	}
	for i := 0; i < 5; i++ {
		b.AddOps(1)
	}
	b.AddErrs(1)
	b.IncRetries()
	b.IncRetries()
	b.DepthAdd(3)
	b.DepthAdd(-1)
	if b.Ops() != 5 || b.Errs() != 1 || b.Retries() != 2 || b.Inflight() != 2 {
		t.Errorf("counters: ops=%d errs=%d retries=%d inflight=%d",
			b.Ops(), b.Errs(), b.Retries(), b.Inflight())
	}
	if ops, errs := rm.Totals(); ops != 5 || errs != 1 {
		t.Errorf("totals: %d %d", ops, errs)
	}
}

func TestRouterBreakerGauge(t *testing.T) {
	rm := NewRouterMetrics([]string{"b0"})
	b := rm.Backend(0)
	if b.BreakerOpen() {
		t.Fatal("breaker starts open")
	}
	b.SetBreaker(true)
	b.SetBreaker(true) // already open: no second trip
	if !b.BreakerOpen() {
		t.Error("breaker not open after SetBreaker(true)")
	}
	b.SetBreaker(false)
	b.SetBreaker(true) // second real trip
	out := prom(t, rm.Exposition())
	if !strings.Contains(out, `caram_router_backend_breaker_trips_total{backend="b0"} 2`) {
		t.Errorf("trip counter wrong:\n%s", out)
	}
	if !strings.Contains(out, `caram_router_backend_breaker_open{backend="b0"} 1`) {
		t.Errorf("open gauge wrong:\n%s", out)
	}
}

// TestRouterBurstHistogram pins the power-of-two bucketing: bucket le=2^i
// counts bursts of size in (2^(i-1), 2^i], cumulatively rendered.
func TestRouterBurstHistogram(t *testing.T) {
	rm := NewRouterMetrics([]string{"b0"})
	b := rm.Backend(0)
	b.ObserveBurst(0)    // ignored
	b.ObserveBurst(1)    // le=1
	b.ObserveBurst(2)    // le=2
	b.ObserveBurst(3)    // le=4
	b.ObserveBurst(4)    // le=4
	b.ObserveBurst(5000) // clamps into the last bucket, which only +Inf bounds
	if n, mean := b.Bursts(); n != 5 || mean != float64(1+2+3+4+5000)/5 {
		t.Errorf("bursts: n=%d mean=%g", n, mean)
	}
	out := prom(t, rm.Exposition())
	if strings.Contains(out, `le="2048"`) {
		t.Errorf("the clamped bucket printed a finite edge:\n%s", out)
	}
	for _, want := range []string{
		`caram_router_burst_size_bucket{backend="b0",le="1"} 1`,
		`caram_router_burst_size_bucket{backend="b0",le="2"} 2`,
		`caram_router_burst_size_bucket{backend="b0",le="4"} 4`,
		`caram_router_burst_size_bucket{backend="b0",le="1024"} 4`,
		`caram_router_burst_size_bucket{backend="b0",le="+Inf"} 5`,
		`caram_router_burst_size_sum{backend="b0"} 5010`,
		`caram_router_burst_size_count{backend="b0"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRouterPrometheusFamilies(t *testing.T) {
	rm := NewRouterMetrics([]string{"alpha", "beta"})
	rm.Backend(1).AddOps(1)
	out := prom(t, rm.Exposition())
	for _, f := range rm.Exposition().Families() {
		if !strings.Contains(out, "# TYPE "+f.Name+" "+string(f.Type)+"\n") {
			t.Errorf("family %s not exported as a %s", f.Name, f.Type)
		}
	}
	if !strings.Contains(out, `caram_router_backend_ops_total{backend="alpha"} 0`) ||
		!strings.Contains(out, `caram_router_backend_ops_total{backend="beta"} 1`) {
		t.Errorf("per-backend labels wrong:\n%s", out)
	}
}

// TestRouterMetricsNilSafe: an unmetered pool (PoolConfig without
// Metrics) records through a nil slot; every recorder must be a no-op,
// not a panic.
func TestRouterMetricsNilSafe(t *testing.T) {
	var b *RouterBackend
	b.AddOps(1)
	b.AddErrs(1)
	b.IncRetries()
	b.DepthAdd(1)
	b.SetBreaker(true)
	b.ObserveBurst(8)
}

// prom scrapes x through Handler.
func prom(t *testing.T, x Exposition) string {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(x).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	return rec.Body.String()
}
