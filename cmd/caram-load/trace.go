package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Tracing lives entirely in the harness: spans are recorded around the
// calls into each layer and around each phase of a sampled burst, kept
// in preallocated memory, and written when the run ends. Spans inside
// the programs are a later issue.

// span is one timed interval. Burst spans share (workload, conn, burst)
// as their id; ladder spans name the rung below as their parent.
type span struct {
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Workload string `json:"workload,omitempty"`
	Conn     int    `json:"conn"`
	Burst    int    `json:"burst"`
	StartNs  int64  `json:"start_ns"` // since the trace epoch
	EndNs    int64  `json:"end_ns"`

	start, end time.Time
}

// counterSample is one scrape of the programs' exported counters, taken
// before or after a repetition.
type counterSample struct {
	Workload string             `json:"workload"`
	Rep      int                `json:"rep"`
	When     string             `json:"when"` // "before" or "after"
	AtNs     int64              `json:"at_ns"`
	Values   map[string]float64 `json:"values"`
}

// tracer collects one run's spans and counter samples.
type tracer struct {
	epoch    time.Time
	spans    []span
	counters []counterSample
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// clientSpanCap is the span budget of one connection for one run: a
// few hundred sampled bursts per repetition at five spans each.
const clientSpanCap = 1 << 16

func (t *tracer) sample(workload string, rep int, when string, values map[string]float64) {
	t.counters = append(t.counters, counterSample{
		Workload: workload, Rep: rep, When: when,
		AtNs: int64(time.Since(t.epoch)), Values: values,
	})
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].StartNs = int64(t.spans[i].start.Sub(t.epoch))
		t.spans[i].EndNs = int64(t.spans[i].end.Sub(t.epoch))
	}
	doc := struct {
		Spans    []span          `json:"spans"`
		Counters []counterSample `json:"counters"`
	}{t.spans, t.counters}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
