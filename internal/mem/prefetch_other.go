//go:build !amd64 && !arm64

package mem

import "unsafe"

// prefetch is a no-op where no prefetch instruction is wired in.
func prefetch(p, q unsafe.Pointer, lo, hi, stride uintptr) {}
