package subsystem

import "errors"

// Engine health. Error coding in the caram layer quarantines rows; past
// fixed thresholds an engine is no longer trustworthy and the
// dispatch layer degrades or fails it. Health is per engine and MONOTONE within an
// episode: it only rises (Healthy → Degraded → Failed) between scrubs,
// so concurrent observers never see a failed engine flap back to
// healthy without an explicit recovery action. A scrub is the episode
// boundary — it repairs the array from the shadow and re-evaluates
// health from the post-repair state.
//
// A Failed engine trips the circuit breaker: Concurrent fails its
// operations fast with ErrEngineUnavailable before touching the port
// lock, so a broken engine cannot queue work or slow its neighbors.

// Health is an engine's availability state.
type Health int32

const (
	Healthy  Health = iota // full service
	Degraded               // serving, but quarantined rows observed
	Failed                 // circuit broken: operations fail fast
)

// String names the state for wire replies and logs.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Errors the dispatch layer returns for unavailable service.
var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("subsystem: closed")
	// ErrEngineUnavailable is the circuit breaker's fast failure for a
	// Failed engine.
	ErrEngineUnavailable = errors.New("subsystem: engine unavailable")
)
