package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.N() != 0 || h.Mean() != 0 || h.StdDev() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram not zeroed")
	}
	for _, v := range []int{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Add(v)
	}
	if h.N() != 8 {
		t.Errorf("N = %d", h.N())
	}
	if h.Mean() != 5 {
		t.Errorf("Mean = %f", h.Mean())
	}
	if math.Abs(h.StdDev()-2) > 1e-9 {
		t.Errorf("StdDev = %f, want 2", h.StdDev())
	}
	if h.Min() != 2 || h.Max() != 9 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if h.Count(4) != 3 || h.Count(100) != 0 {
		t.Error("Count wrong")
	}
	if h.CountAbove(5) != 2 {
		t.Errorf("CountAbove(5) = %d", h.CountAbove(5))
	}
	if h.CountAbove(-1) != 8 {
		t.Errorf("CountAbove(-1) = %d", h.CountAbove(-1))
	}
}

func TestAddN(t *testing.T) {
	h := NewHistogram()
	h.AddN(10, 5)
	h.AddN(20, 0)  // ignored
	h.AddN(30, -2) // ignored
	if h.N() != 5 || h.Mean() != 10 {
		t.Errorf("AddN: N=%d mean=%f", h.N(), h.Mean())
	}
}

func TestPercentile(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	cases := []struct {
		p    float64
		want int
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {1, 100}, {-1, 1}, {2, 100}}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%f) = %d, want %d", c.p, got, c.want)
		}
	}
	if NewHistogram().Percentile(0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestBin(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{0, 1, 9, 10, 11, 25} {
		h.Add(v)
	}
	edges, counts := h.Bin(0, 10)
	if len(edges) != 3 || edges[0] != 0 || edges[1] != 10 || edges[2] != 20 {
		t.Fatalf("edges = %v", edges)
	}
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts = %v", counts)
	}
	// Values below lo clamp into bin 0: 0 and 1 join the [5,14] bin.
	_, counts = h.Bin(5, 10)
	if counts[0] != 5 { // 0, 1, 9, 10, 11
		t.Errorf("clamped counts = %v", counts)
	}
}

func TestBinClamping(t *testing.T) {
	h := NewHistogram()
	h.Add(-5)
	h.Add(3)
	h.Add(40)
	_, counts := h.Bin(0, 10)
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("binned total = %d", total)
	}
	if e, c := h.Bin(0, 0); e != nil || c != nil {
		t.Error("zero width should return nil")
	}
}

func TestRender(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Add(i % 3 * 10)
	}
	out := h.Render(0, 10, 20)
	if !strings.Contains(out, "#") {
		t.Errorf("render has no bars:\n%s", out)
	}
	if got := NewHistogram().Render(0, 10, 20); got != "(empty)\n" {
		t.Errorf("empty render = %q", got)
	}
}

// Property: histogram mean/min/max agree with direct computation.
func TestHistogramAgainstDirectQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		sum, min, max := 0, int(raw[0]), int(raw[0])
		for _, b := range raw {
			v := int(b)
			h.Add(v)
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		wantMean := float64(sum) / float64(len(raw))
		return h.Min() == min && h.Max() == max && math.Abs(h.Mean()-wantMean) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantiles agrees with Percentile at every requested p, on
// arbitrary data.
func TestQuantilesMatchPercentileQuick(t *testing.T) {
	f := func(raw []uint8, ps []float64) bool {
		h := NewHistogram()
		for _, b := range raw {
			h.Add(int(b))
		}
		got := h.Quantiles(ps...)
		for i, p := range ps {
			if got[i] != h.Percentile(p) {
				return false
			}
		}
		return len(got) == len(ps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantilesEdges(t *testing.T) {
	h := NewHistogram()
	if qs := h.Quantiles(0.5); qs[0] != 0 {
		t.Errorf("empty Quantiles = %v", qs)
	}
	for v := 1; v <= 100; v++ {
		h.Add(v)
	}
	qs := h.Quantiles(-1, 0, 0.5, 0.99, 1, 2)
	want := []int{1, 1, 50, 99, 100, 100}
	for i := range want {
		if qs[i] != want[i] {
			t.Errorf("Quantiles[%d] = %d, want %d", i, qs[i], want[i])
		}
	}
}
