//go:build amd64 || arm64

package mem

import "unsafe"

// Prefetch hints that the cache line holding p will be read soon
// (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). Unlike a load, it
// retires before the line arrives, so a stage issuing hints runs ahead
// of the stage reading the lines. It never faults and changes nothing.
//
//go:noescape
func Prefetch(p unsafe.Pointer)
