//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool deliberately drops items — so a
// per-line allocation count over the pooled trace path is not zero.
const raceEnabled = true
