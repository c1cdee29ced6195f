//go:build amd64 || arm64

package mem

import "unsafe"

// prefetch hints the lines holding p and q, then lo, lo+stride, ...
// while below hi, then hi — each line of [lo, hi] for a stride of at most
// a line (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). A hint, unlike a
// load, retires before its line arrives, so a stage issuing hints runs
// ahead of the stage reading the lines. It never faults.
//
//go:noescape
func prefetch(p, q unsafe.Pointer, lo, hi, stride uintptr)
