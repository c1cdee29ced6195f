//go:build race

package wal

// raceEnabled reports whether this test binary was built with the race
// detector, whose runtime allocates on its own — the allocation guards
// skip themselves under it (make alloc-guard runs them without).
const raceEnabled = true
