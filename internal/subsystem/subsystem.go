package subsystem

import (
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/match"
)

// Subsystem is the Figure 5 assembly: named engines behind virtual
// ports, with request and result queues. The paper maps ports to
// memory addresses so ordinary loads and stores drive the subsystem;
// here Submit and Poll play the roles of those stores and loads.
//
// Submit/Poll is the single-threaded model of that port interface and
// is kept as such: it is what gives New's maxQueue parameter a meaning
// (the result-queue bound a full hardware queue stalls stores on), and
// that parameter is part of the signature the benchmark harness and
// every binary construct a subsystem through. Concurrent serving goes
// through NewConcurrent, the one concurrent dispatcher; it uses the
// engine registry here and never the queue.
type Subsystem struct {
	engines  map[string]*Engine
	order    []string
	results  []PortResult
	maxQueue int
	nextID   uint64
	stats    map[string]*EngineStats
}

// PortResult is one entry of the result queue.
type PortResult struct {
	ID     uint64
	Port   string
	Found  bool
	Record match.Record
}

// New builds an empty subsystem; maxQueue bounds the result queue
// (0 = 1024).
func New(maxQueue int) *Subsystem {
	if maxQueue <= 0 {
		maxQueue = 1024
	}
	return &Subsystem{
		engines:  make(map[string]*Engine),
		stats:    make(map[string]*EngineStats),
		maxQueue: maxQueue,
	}
}

// AddEngine registers an engine under its name (the virtual port of
// §3.2). Duplicate names are rejected.
func (s *Subsystem) AddEngine(e *Engine) error {
	if e == nil || e.Name == "" {
		return fmt.Errorf("subsystem: engine must be named")
	}
	if _, dup := s.engines[e.Name]; dup {
		return fmt.Errorf("subsystem: engine %q already registered", e.Name)
	}
	s.engines[e.Name] = e
	s.order = append(s.order, e.Name)
	s.stats[e.Name] = &EngineStats{}
	return nil
}

// Engines lists engine names in registration order.
func (s *Subsystem) Engines() []string { return append([]string(nil), s.order...) }

// Insert routes a record to the named engine's database.
func (s *Subsystem) Insert(port string, rec match.Record) error {
	e, ok := s.engines[port]
	if !ok {
		return fmt.Errorf("subsystem: no engine %q", port)
	}
	return e.Insert(rec, s.stats[port])
}

// Submit enqueues a search request on a virtual port: the input
// controller forwards it to the engine and the result lands in the
// result queue. It fails when the result queue is full — backpressure
// the hardware exerts by stalling the store.
func (s *Subsystem) Submit(port string, key bitutil.Ternary) (uint64, error) {
	e, ok := s.engines[port]
	if !ok {
		return 0, fmt.Errorf("subsystem: no engine %q", port)
	}
	if len(s.results) >= s.maxQueue {
		return 0, fmt.Errorf("subsystem: result queue full")
	}
	s.nextID++
	sr := e.Search(key)
	s.results = append(s.results, PortResult{
		ID:     s.nextID,
		Port:   port,
		Found:  sr.Found,
		Record: sr.Record,
	})
	return s.nextID, nil
}

// Poll dequeues the oldest result, if any.
func (s *Subsystem) Poll() (PortResult, bool) {
	if len(s.results) == 0 {
		return PortResult{}, false
	}
	r := s.results[0]
	s.results = s.results[1:]
	return r, true
}

// Pending returns the result-queue occupancy.
func (s *Subsystem) Pending() int { return len(s.results) }
