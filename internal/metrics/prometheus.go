package metrics

import (
	"fmt"
	"io"
)

// Type is a family's metric type, spelled as its # TYPE line spells it.
type Type string

const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Desc is what a family declares apart from its samples — a row of the
// metric catalogue: the name, help text, type and label names the
// exposition heads the family with. A histogram also declares the finite
// upper bounds of its buckets, ascending; a bucket past the last bound
// has no finite bound, so only the +Inf line counts what lands there.
type Desc struct {
	Name    string
	Help    string
	Type    Type
	Labels  []string
	Buckets []float64
}

// Family declares one metric family over S, the value its tier samples
// once per scrape: its Desc, and Collect, which emits the family's
// samples from one S.
//
// A family is one declaration: the exposition, the README catalogue and
// metrics-smoke all read it, and nothing else spells its name.
type Family[S any] struct {
	Desc
	Collect func(S, *Emitter)
}

// Group is a list of families bound to the sampler of their source.
type Group struct {
	descs []Desc
	write func(*Emitter)
}

// Bind binds fams to sample: each scrape calls sample once and hands the
// one value to every family's Collect, in order — so an engine's Gauges
// are read once per scrape however many families show them.
func Bind[S any](sample func() S, fams ...Family[S]) Group {
	g := Group{descs: make([]Desc, len(fams))}
	for i, f := range fams {
		g.descs[i] = f.Desc
	}
	g.write = func(e *Emitter) {
		s := sample()
		for i, d := range g.descs {
			e.buf = fmt.Appendf(e.buf, "# HELP %s %s\n# TYPE %s %s\n", d.Name, d.Help, d.Name, d.Type)
			e.fam = &g.descs[i]
			fams[i].Collect(s, e)
		}
	}
	return g
}

// bounds lists a histogram's finite bucket bounds: edge(i) of every
// bucket i but the last, which takes everything past the edge before it.
func bounds(buckets int, edge func(i int) float64) []float64 {
	b := make([]float64, buckets-1)
	for i := range b {
		b[i] = edge(i)
	}
	return b
}

// Exposition is one tier's /metrics: its groups in exposition order.
type Exposition []Group

// Families lists the declarations of x in exposition order.
func (x Exposition) Families() []Desc {
	var ds []Desc
	for _, g := range x {
		ds = append(ds, g.descs...)
	}
	return ds
}

// WriteTo renders x in the Prometheus text exposition format (version
// 0.0.4). It is the one writer of every family either tier serves.
func (x Exposition) WriteTo(w io.Writer) (int64, error) {
	var e Emitter
	for _, g := range x {
		g.write(&e)
	}
	n, err := w.Write(e.buf)
	return int64(n), err
}

// Emitter takes the samples of the family being written. A sample's
// value is an integer, printed in decimal, or a float64, printed in its
// shortest form (%v is %d and %g): a writer that made every value a
// float64 would print 12345678 as 1.2345678e+07. Label values are given
// in the order of the family's declared label names.
type Emitter struct {
	buf []byte
	fam *Desc
}

// Sample emits one sample.
func (e *Emitter) Sample(v any, labels ...string) {
	e.line("", labels, "", v)
}

// Scalar is the collect of a family with one unlabelled sample.
func Scalar[S any](val func(S) any) func(S, *Emitter) {
	return func(s S, e *Emitter) { e.Sample(val(s)) }
}

// Hist emits one histogram series: counts per bucket against the
// family's bounds (a tail of empty buckets may be left off), n
// observations in all, and their sum. Leading empty buckets get no line,
// and neither does a bucket past the last bound: +Inf closes the series.
func (e *Emitter) Hist(counts []uint64, n uint64, sum any, labels ...string) {
	var cum uint64
	for i, c := range counts[:min(len(counts), len(e.fam.Buckets))] {
		cum += c
		if cum == 0 {
			continue
		}
		e.line("_bucket", labels, fmt.Sprint(e.fam.Buckets[i]), cum)
	}
	e.line("_bucket", labels, "+Inf", n)
	e.line("_sum", labels, "", sum)
	e.line("_count", labels, "", n)
}

// LatencyBuckets are a Histogram's finite bucket bounds in seconds: the
// Buckets of every family Latency emits.
var LatencyBuckets = bounds(histBuckets, func(i int) float64 { return float64(BucketEdgeNs(i)) / 1e9 })

// SizeBuckets are a SizeHistogram's finite bucket bounds, 1 to
// 2^(sizeBuckets-2); a family may declare a prefix of them, and what its
// last bound does not cover counts in +Inf alone.
var SizeBuckets = bounds(sizeBuckets, func(i int) float64 { return float64(int(1) << i) })

// Latency emits one Histogram snapshot as a series in seconds; buckets
// above the slowest observation get no line.
func (e *Emitter) Latency(h HistSnapshot, labels ...string) {
	top := len(h.Counts)
	for top > 0 && h.Counts[top-1] == 0 {
		top--
	}
	e.Hist(h.Counts[:top], h.N, float64(h.SumNs)/1e9, labels...)
}

// line writes name+suffix{labels[,le]} value.
func (e *Emitter) line(suffix string, labels []string, le string, v any) {
	if len(labels) != len(e.fam.Labels) {
		panic("metrics: " + e.fam.Name + " takes labels " + fmt.Sprint(e.fam.Labels) + ", got " + fmt.Sprint(labels))
	}
	b := fmt.Appendf(e.buf, "%s%s", e.fam.Name, suffix)
	sep := '{'
	for i, name := range e.fam.Labels {
		b = fmt.Appendf(b, "%c%s=%q", sep, name, labels[i])
		sep = ','
	}
	if le != "" {
		b = fmt.Appendf(b, "%cle=%q", sep, le)
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	e.buf = fmt.Appendf(b, " %v\n", v)
}
